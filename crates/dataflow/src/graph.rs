//! The SDF stage-graph IR.
//!
//! A [`SdfGraph`] is a set of [`Stage`]s connected by token [`Channel`]s.
//! Each stage is pinned to one [`Resource`]; each channel declares how
//! many tokens one producer firing appends and one consumer firing
//! removes, and an optional declared capacity (the `sync_channel` bound
//! or slot count of the real implementation). Every channel starts
//! empty: the runtime has no token values to seed it with, so a
//! directed cycle can never fire. Costs are plain seconds supplied
//! by the caller — this crate never computes hardware costs itself,
//! keeping it free of any simulator dependency.

use std::fmt;

/// Where a stage executes. Firings on the same resource serialize; the
/// critical-path model lets distinct resources overlap freely.
///
/// Devices and links are indexed so multi-accelerator schedules (e.g.
/// encode on device 0, score on device 1) can declare distinct,
/// mutually overlapping resources. Index 0 is the classic single-device
/// setup and displays as plain `device` / `link`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// An accelerator (MXU + activation units), by device index.
    Device(usize),
    /// The host CPU.
    Host,
    /// A host↔device DMA link, by link index.
    Link(usize),
}

impl Resource {
    /// The single-accelerator device resource (`Device(0)`).
    pub const DEVICE: Resource = Resource::Device(0);
    /// The single-accelerator DMA link resource (`Link(0)`).
    pub const LINK: Resource = Resource::Link(0);
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Device(0) => write!(f, "device"),
            Resource::Device(n) => write!(f, "device{n}"),
            Resource::Host => write!(f, "host"),
            Resource::Link(0) => write!(f, "link"),
            Resource::Link(n) => write!(f, "link{n}"),
        }
    }
}

/// Opaque handle to a stage within one [`SdfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageId(pub(crate) usize);

impl StageId {
    /// Position of the stage in [`SdfGraph::stages`] order.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// One schedulable actor: a name, the resource it occupies while firing,
/// and the cost of a single firing in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Human-readable stage name, used in diagnostics.
    pub name: String,
    /// Resource the stage occupies while firing.
    pub resource: Resource,
    /// Seconds one firing takes on its resource.
    pub cost_s: f64,
}

/// A bounded token channel between two stages.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    /// Producing stage.
    pub from: StageId,
    /// Consuming stage.
    pub to: StageId,
    /// Tokens appended per producer firing.
    pub produce: usize,
    /// Tokens removed per consumer firing.
    pub consume: usize,
    /// Declared capacity (e.g. a `sync_channel` depth or slot count);
    /// `None` models an unbounded buffer.
    pub capacity: Option<usize>,
}

/// A declared dataflow schedule: stages, channels, and the per-iteration
/// dispatch overhead that no overlap can hide.
#[derive(Debug, Clone, PartialEq)]
pub struct SdfGraph {
    name: String,
    overhead_s: f64,
    stages: Vec<Stage>,
    channels: Vec<Channel>,
}

impl SdfGraph {
    /// Creates an empty graph named `name` (the name prefixes every
    /// diagnostic the analyzer emits for it).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        SdfGraph {
            name: name.into(),
            overhead_s: 0.0,
            stages: Vec::new(),
            channels: Vec::new(),
        }
    }

    /// Sets the fixed per-iteration overhead (dispatch latency etc.)
    /// added to the critical path outside any resource overlap.
    #[must_use]
    pub fn with_overhead_s(mut self, overhead_s: f64) -> Self {
        self.overhead_s = overhead_s;
        self
    }

    /// Adds a stage and returns its handle.
    pub fn add_stage(
        &mut self,
        name: impl Into<String>,
        resource: Resource,
        cost_s: f64,
    ) -> StageId {
        self.stages.push(Stage {
            name: name.into(),
            resource,
            cost_s,
        });
        StageId(self.stages.len() - 1)
    }

    /// Connects `from` to `to` with the given rates and declared
    /// capacity.
    pub fn add_channel(
        &mut self,
        from: StageId,
        to: StageId,
        produce: usize,
        consume: usize,
        capacity: Option<usize>,
    ) {
        self.channels.push(Channel {
            from,
            to,
            produce,
            consume,
            capacity,
        });
    }

    /// The graph's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-iteration overhead in seconds.
    #[must_use]
    pub fn overhead_s(&self) -> f64 {
        self.overhead_s
    }

    /// All stages, in insertion order (a [`StageId`] indexes this).
    #[must_use]
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// All channels, in insertion order.
    #[must_use]
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// `"<producer> -> <consumer>"`, for diagnostics and reports.
    #[must_use]
    pub fn channel_label(&self, channel: &Channel) -> String {
        format!(
            "{} -> {}",
            self.stages[channel.from.0].name, self.stages[channel.to.0].name
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut g = SdfGraph::new("g").with_overhead_s(0.5);
        let a = g.add_stage("a", Resource::LINK, 1.0);
        let b = g.add_stage("b", Resource::DEVICE, 2.0);
        g.add_channel(a, b, 1, 1, Some(2));
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(g.stages().len(), 2);
        assert_eq!(g.channels().len(), 1);
        assert_eq!(g.overhead_s(), 0.5);
        assert_eq!(g.channel_label(&g.channels()[0]), "a -> b");
    }

    #[test]
    fn indexed_resources_display_classic_names_for_index_zero() {
        assert_eq!(Resource::DEVICE.to_string(), "device");
        assert_eq!(Resource::Device(1).to_string(), "device1");
        assert_eq!(Resource::Host.to_string(), "host");
        assert_eq!(Resource::LINK.to_string(), "link");
        assert_eq!(Resource::Link(2).to_string(), "link2");
    }

    #[test]
    fn resources_order_devices_then_host_then_links() {
        let mut rs = vec![
            Resource::Link(1),
            Resource::Host,
            Resource::Device(1),
            Resource::LINK,
            Resource::DEVICE,
        ];
        rs.sort();
        assert_eq!(
            rs,
            vec![
                Resource::DEVICE,
                Resource::Device(1),
                Resource::Host,
                Resource::LINK,
                Resource::Link(1),
            ]
        );
    }
}
