use std::error::Error;
use std::fmt;

use hd_bagging::BaggingError;
use hd_dataflow::runtime::RunError;
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
    /// A schedule stage gave up on a firing: where the run failed, and
    /// the executor's error that ended it.
    Stage {
        /// Stage index in graph order.
        stage: usize,
        /// The stage's declared name.
        name: String,
        /// The firing that failed.
        firing: u64,
        /// Attempts spent on that firing.
        attempts: u32,
        /// The executor's error.
        source: Box<FrameworkError>,
    },
}

impl FrameworkError {
    /// True when this error wraps an injected/simulated device fault
    /// (transient invoke failure, link corruption, weight upset, hang) —
    /// the class of errors stage supervision retries and the fleet's
    /// quarantine logic acts on. Configuration and shape errors are
    /// never device faults, and neither is a [`FrameworkError::Stage`]:
    /// supervision retries executor errors, not finished runs.
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
            FrameworkError::Stage {
                stage,
                name,
                firing,
                attempts,
                source,
            } => write!(
                f,
                "stage {stage} ({name}) failed at firing {firing} after {attempts} attempt(s): \
                 {source}"
            ),
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
            FrameworkError::Stage { source, .. } => Some(source.as_ref()),
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

/// A failed schedule run keeps where it failed: the stage, the firing
/// and the attempts spent on it wrap the executor's error.
impl From<RunError<FrameworkError>> for FrameworkError {
    fn from(e: RunError<FrameworkError>) -> Self {
        match e {
            RunError::Stage {
                stage,
                name,
                firing,
                attempts,
                error,
            } => FrameworkError::Stage {
                stage,
                name,
                firing,
                attempts,
                source: Box::new(error),
            },
            RunError::Protocol { stage, message } => FrameworkError::InvalidConfig(format!(
                "schedule protocol violation at stage {stage}: {message}"
            )),
        }
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
    fn a_failed_run_keeps_its_stage_firing_and_attempts() {
        let e = FrameworkError::from(RunError::Stage {
            stage: 1,
            name: "compute".into(),
            firing: 3,
            attempts: 2,
            error: FrameworkError::Sim(SimError::TransientInvokeFailure),
        });
        assert_eq!(
            e.to_string(),
            "stage 1 (compute) failed at firing 3 after 2 attempt(s): \
             device error: transient dispatch failure, invocation never started"
        );
        assert_eq!(
            e.source().map(ToString::to_string),
            Some(FrameworkError::Sim(SimError::TransientInvokeFailure).to_string())
        );
        // The wrapped fault is not retried again by a caller's supervision.
        assert!(!e.device_fault());
        let e = FrameworkError::from(RunError::<FrameworkError>::Protocol {
            stage: 0,
            message: "one token too many".into(),
        });
        assert!(matches!(e, FrameworkError::InvalidConfig(_)), "{e:?}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrameworkError>();
    }
}
