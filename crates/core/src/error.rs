use std::error::Error;
use std::fmt;

use hd_bagging::BaggingError;
use hd_dataflow::PlanError;
use hd_tensor::TensorError;
use hdc::HdcError;
use tpu_sim::SimError;
use wide_nn::NnError;

/// Error type unifying every failure the framework can surface.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FrameworkError {
    /// A pipeline configuration value was out of range.
    InvalidConfig(String),
    /// An HDC algorithm error.
    Hdc(HdcError),
    /// A bagged-training error.
    Bagging(BaggingError),
    /// A model-construction or compilation error.
    Nn(NnError),
    /// A simulated-device error.
    Sim(SimError),
    /// A tensor error.
    Tensor(TensorError),
}

impl FrameworkError {
    /// True when this error wraps an injected/simulated device fault
    /// (transient invoke failure, link corruption, weight upset, hang) —
    /// the class of errors stage supervision retries and the fleet's
    /// quarantine logic acts on. Configuration and shape errors are
    /// never device faults.
    #[must_use]
    pub fn device_fault(&self) -> bool {
        matches!(self, FrameworkError::Sim(e) if e.is_fault())
    }
}

impl fmt::Display for FrameworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameworkError::InvalidConfig(msg) => write!(f, "invalid pipeline config: {msg}"),
            FrameworkError::Hdc(e) => write!(f, "hdc error: {e}"),
            FrameworkError::Bagging(e) => write!(f, "bagging error: {e}"),
            FrameworkError::Nn(e) => write!(f, "model error: {e}"),
            FrameworkError::Sim(e) => write!(f, "device error: {e}"),
            FrameworkError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl Error for FrameworkError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FrameworkError::Hdc(e) => Some(e),
            FrameworkError::Bagging(e) => Some(e),
            FrameworkError::Nn(e) => Some(e),
            FrameworkError::Sim(e) => Some(e),
            FrameworkError::Tensor(e) => Some(e),
            FrameworkError::InvalidConfig(_) => None,
        }
    }
}

impl From<HdcError> for FrameworkError {
    fn from(e: HdcError) -> Self {
        FrameworkError::Hdc(e)
    }
}

impl From<BaggingError> for FrameworkError {
    fn from(e: BaggingError) -> Self {
        FrameworkError::Bagging(e)
    }
}

impl From<NnError> for FrameworkError {
    fn from(e: NnError) -> Self {
        FrameworkError::Nn(e)
    }
}

impl From<SimError> for FrameworkError {
    fn from(e: SimError) -> Self {
        FrameworkError::Sim(e)
    }
}

impl From<TensorError> for FrameworkError {
    fn from(e: TensorError) -> Self {
        FrameworkError::Tensor(e)
    }
}

/// A declared schedule the runtime refuses to run is a configuration
/// error.
impl From<PlanError> for FrameworkError {
    fn from(e: PlanError) -> Self {
        FrameworkError::InvalidConfig(format!("declared schedule rejected by the runtime: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: FrameworkError = HdcError::EmptyDataset.into();
        assert!(e.source().is_some());
        let e: FrameworkError = SimError::NoModelLoaded.into();
        assert!(e.to_string().contains("device error"));
        let e = FrameworkError::InvalidConfig("dim".into());
        assert!(e.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrameworkError>();
    }
}
