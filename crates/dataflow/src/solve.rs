//! Rate mathematics behind the runtime's validator.
//!
//! Everything here is pure: balance-equation solving to the smallest
//! positive integer repetition vector, minimal safe channel bounds
//! (`produce + consume - gcd`), a symbolic steady-state execution that
//! detects capacity-induced deadlocks, and per-resource busy time.
//! [`ExecutablePlan::validate`](crate::runtime::ExecutablePlan::validate)
//! is their one caller that passes judgement: it sizes the runtime's
//! `sync_channel`s from them, and the analyzer (`hd-analysis`) renders
//! its verdict as diagnostics.

use crate::graph::{Channel, Resource, SdfGraph};

/// Greatest common divisor (u64, gcd(0, n) = n).
#[must_use]
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Why no repetition vector exists for a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateError {
    /// The channel references a stage outside the graph.
    Dangling {
        /// Index into [`SdfGraph::channels`].
        channel: usize,
    },
    /// The channel declares a zero produce or consume rate.
    ZeroRate {
        /// Index into [`SdfGraph::channels`].
        channel: usize,
    },
    /// The channel's rates contradict the rest of the graph: no
    /// balanced repetition vector exists.
    Inconsistent {
        /// Index into [`SdfGraph::channels`].
        channel: usize,
    },
}

/// A non-negative rational, kept reduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ratio {
    num: u64,
    den: u64,
}

impl Ratio {
    fn new(num: u64, den: u64) -> Ratio {
        let g = gcd(num, den).max(1);
        Ratio {
            num: num / g,
            den: den / g,
        }
    }

    /// `self * num / den`, reduced.
    fn scaled(self, num: u64, den: u64) -> Ratio {
        let scale = Ratio::new(num, den);
        // Cross-reduce before multiplying so u64 stays comfortable for
        // any realistic rate declaration.
        let g1 = gcd(self.num, scale.den).max(1);
        let g2 = gcd(scale.num, self.den).max(1);
        Ratio {
            num: (self.num / g1) * (scale.num / g2),
            den: (self.den / g2) * (scale.den / g1),
        }
    }
}

/// Solves the balance equations `rate[from] * produce = rate[to] *
/// consume` for the smallest positive integer repetition vector, or
/// reports the offending channel.
pub fn repetition_vector(graph: &SdfGraph) -> Result<Vec<u64>, RateError> {
    let n = graph.stages().len();

    // Structural validity: every channel must name real stages and
    // positive rates, otherwise no balance equation is meaningful.
    for (c, channel) in graph.channels().iter().enumerate() {
        if channel.from.index() >= n || channel.to.index() >= n {
            return Err(RateError::Dangling { channel: c });
        }
        if channel.produce == 0 || channel.consume == 0 {
            return Err(RateError::ZeroRate { channel: c });
        }
    }

    let mut rates: Vec<Option<Ratio>> = vec![None; n];

    // Adjacency over channel indices, both directions.
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (c, channel) in graph.channels().iter().enumerate() {
        adjacency[channel.from.index()].push(c);
        adjacency[channel.to.index()].push(c);
    }

    for start in 0..n {
        if rates[start].is_some() {
            continue;
        }
        rates[start] = Some(Ratio::new(1, 1));
        let mut queue = vec![start];
        while let Some(s) = queue.pop() {
            let rate = match rates[s] {
                Some(r) => r,
                None => continue,
            };
            for &c in &adjacency[s] {
                let channel = &graph.channels()[c];
                let (other, expected) = if channel.from.index() == s {
                    // rate[to] = rate[from] * produce / consume
                    (
                        channel.to.index(),
                        rate.scaled(channel.produce as u64, channel.consume as u64),
                    )
                } else {
                    (
                        channel.from.index(),
                        rate.scaled(channel.consume as u64, channel.produce as u64),
                    )
                };
                match rates[other] {
                    None => {
                        rates[other] = Some(expected);
                        queue.push(other);
                    }
                    Some(found) if found != expected => {
                        return Err(RateError::Inconsistent { channel: c });
                    }
                    Some(_) => {}
                }
            }
        }
    }

    // Scale to the smallest positive integer vector: multiply by the
    // lcm of denominators, then divide by the gcd of the results.
    let mut lcm: u64 = 1;
    for rate in rates.iter().flatten() {
        lcm = lcm / gcd(lcm, rate.den) * rate.den;
    }
    let mut reps: Vec<u64> = rates
        .into_iter()
        .map(|r| r.map_or(1, |r| r.num * (lcm / r.den)))
        .collect();
    let common = reps.iter().copied().fold(0, gcd).max(1);
    for r in &mut reps {
        *r /= common;
    }
    Ok(reps)
}

/// Minimal safe capacity of one channel: `produce + consume - gcd`.
#[must_use]
pub fn min_capacity(channel: &Channel) -> usize {
    let g = gcd(channel.produce as u64, channel.consume as u64) as usize;
    channel.produce + channel.consume - g
}

/// The stalled state of a steady-state simulation that deadlocked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stall {
    /// Tokens on each channel at the stall, in channel order.
    pub tokens: Vec<usize>,
    /// Unfired firings per stage at the stall, in stage order.
    pub remaining: Vec<u64>,
}

/// Symbolically executes one steady-state iteration from empty
/// channels under the declared capacities. Returns `Ok(())` when every
/// stage completes its repetition count, or the stalled state for
/// diagnosis.
pub fn simulate_steady_state(graph: &SdfGraph, repetition: &[u64]) -> Result<(), Stall> {
    let channels = graph.channels();
    let mut tokens: Vec<usize> = vec![0; channels.len()];
    let mut remaining: Vec<u64> = repetition.to_vec();

    let can_fire = |stage: usize, tokens: &[usize]| -> bool {
        for (c, channel) in channels.iter().enumerate() {
            let consumes = channel.to.index() == stage;
            let produces = channel.from.index() == stage;
            let mut level = tokens[c];
            if consumes {
                if level < channel.consume {
                    return false;
                }
                level -= channel.consume;
            }
            if produces {
                if let Some(cap) = channel.capacity {
                    if level + channel.produce > cap {
                        return false;
                    }
                }
            }
        }
        true
    };

    loop {
        let mut progressed = false;
        for (stage, rem) in remaining.iter_mut().enumerate() {
            while *rem > 0 && can_fire(stage, &tokens) {
                for (c, channel) in channels.iter().enumerate() {
                    if channel.to.index() == stage {
                        tokens[c] -= channel.consume;
                    }
                    if channel.from.index() == stage {
                        tokens[c] += channel.produce;
                    }
                }
                *rem -= 1;
                progressed = true;
            }
        }
        if remaining.iter().all(|&r| r == 0) {
            return Ok(());
        }
        if !progressed {
            return Err(Stall { tokens, remaining });
        }
    }
}

/// Busy seconds per resource given a firing count per stage:
/// `Σ firings × cost` of the stages pinned to each resource. Always
/// includes the classic single-accelerator trio (`device`, `host`,
/// `link`) so reports stay shape-stable, plus any further indexed
/// resources the graph uses, in [`Resource`] order.
#[must_use]
pub fn resource_busy_s(graph: &SdfGraph, firings: &[u64]) -> Vec<(Resource, f64)> {
    let mut resources = vec![Resource::DEVICE, Resource::Host, Resource::LINK];
    for stage in graph.stages() {
        if !resources.contains(&stage.resource) {
            resources.push(stage.resource);
        }
    }
    resources.sort();
    resources
        .into_iter()
        .map(|resource| {
            let busy: f64 = graph
                .stages()
                .iter()
                .zip(firings)
                .filter(|(stage, _)| stage.resource == resource)
                .map(|(stage, &reps)| reps as f64 * stage.cost_s)
                .fold(0.0, |acc, s| acc + s);
            (resource, busy)
        })
        .collect()
}

/// Analytic elapsed seconds of one steady-state iteration:
/// `overhead + max(resource busy times)`. Resources serialize
/// internally and overlap with each other.
#[must_use]
pub fn critical_path_s(graph: &SdfGraph, repetition: &[u64]) -> f64 {
    let longest = resource_busy_s(graph, repetition)
        .into_iter()
        .fold(0.0f64, |acc, (_, busy)| acc.max(busy));
    graph.overhead_s() + longest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Resource, SdfGraph};

    #[test]
    fn unit_chain_solves_to_ones() {
        let mut g = SdfGraph::new("chain").with_overhead_s(1e-3);
        let a = g.add_stage("a", Resource::LINK, 2e-3);
        let b = g.add_stage("b", Resource::DEVICE, 5e-3);
        let c = g.add_stage("c", Resource::LINK, 1e-3);
        g.add_channel(a, b, 1, 1, Some(2));
        g.add_channel(b, c, 1, 1, Some(2));
        let reps = repetition_vector(&g).unwrap();
        assert_eq!(reps, vec![1, 1, 1]);
        assert!((critical_path_s(&g, &reps) - 6e-3).abs() < 1e-15);
        assert_eq!(min_capacity(&g.channels()[0]), 1);
        assert!(simulate_steady_state(&g, &reps).is_ok());
    }

    #[test]
    fn fan_out_scales_the_vector() {
        let mut g = SdfGraph::new("fan");
        let plan = g.add_stage("plan", Resource::Host, 0.0);
        let member = g.add_stage("member", Resource::Host, 1.0);
        let merge = g.add_stage("merge", Resource::Host, 0.0);
        g.add_channel(plan, member, 4, 1, Some(4));
        g.add_channel(member, merge, 1, 4, Some(4));
        assert_eq!(repetition_vector(&g).unwrap(), vec![1, 4, 1]);
        assert_eq!(min_capacity(&g.channels()[0]), 4);
    }

    #[test]
    fn contradictory_rates_name_the_channel() {
        let mut g = SdfGraph::new("bad");
        let a = g.add_stage("a", Resource::Host, 1.0);
        let b = g.add_stage("b", Resource::Host, 1.0);
        g.add_channel(a, b, 2, 1, None);
        g.add_channel(a, b, 1, 1, None);
        assert_eq!(
            repetition_vector(&g),
            Err(RateError::Inconsistent { channel: 1 })
        );
    }

    #[test]
    fn zero_rate_is_structural() {
        let mut g = SdfGraph::new("zero");
        let a = g.add_stage("a", Resource::Host, 1.0);
        let b = g.add_stage("b", Resource::Host, 1.0);
        g.add_channel(a, b, 0, 1, None);
        assert_eq!(
            repetition_vector(&g),
            Err(RateError::ZeroRate { channel: 0 })
        );
    }

    #[test]
    fn zero_token_cycle_stalls() {
        let mut g = SdfGraph::new("cycle");
        let a = g.add_stage("a", Resource::Host, 1.0);
        let b = g.add_stage("b", Resource::Host, 1.0);
        g.add_channel(a, b, 1, 1, None);
        g.add_channel(b, a, 1, 1, None);
        let reps = repetition_vector(&g).unwrap();
        let stall = simulate_steady_state(&g, &reps).unwrap_err();
        assert_eq!(stall.remaining, vec![1, 1]);
    }

    #[test]
    fn busy_times_cover_indexed_resources() {
        let mut g = SdfGraph::new("two-device");
        let a = g.add_stage("enc", Resource::DEVICE, 2.0);
        let b = g.add_stage("score", Resource::Device(1), 3.0);
        g.add_channel(a, b, 1, 1, Some(2));
        let busy = resource_busy_s(&g, &[1, 1]);
        let labels: Vec<String> = busy.iter().map(|(r, _)| r.to_string()).collect();
        assert_eq!(labels, vec!["device", "device1", "host", "link"]);
        assert!((critical_path_s(&g, &[1, 1]) - 3.0).abs() < 1e-15);
    }
}
