use std::error::Error;
use std::fmt;

use wide_nn::NnError;

use crate::fault::LinkDirection;

/// Error type for simulated-device operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// `invoke` was called before any model was loaded.
    NoModelLoaded,
    /// The invocation batch width does not match the loaded model.
    BatchWidth {
        /// Input width of the loaded model.
        expected: usize,
        /// Width of the batch that was supplied.
        actual: usize,
    },
    /// The model does not fit the on-chip parameter buffer.
    BufferOverflow {
        /// Bytes the model requires.
        required: usize,
        /// Bytes the buffer provides.
        available: usize,
    },
    /// A fully-connected stage reduces over more inputs than the `i32`
    /// accumulator holds exactly for every operand value
    /// ([`hd_quant::gemm::MAX_EXACT_DEPTH`]).
    AccumulatorDepth {
        /// Reduction depth of the offending stage.
        depth: usize,
        /// Deepest reduction the datapath accepts.
        max: usize,
    },
    /// A model-layer error surfaced during execution.
    Nn(NnError),
    /// An injected transient dispatch failure: the invocation never
    /// started. Retrying is safe and converges to the fault-free output.
    TransientInvokeFailure,
    /// A host-link payload failed its CRC; the transfer must be redone.
    LinkCorruption {
        /// Transfer direction.
        direction: LinkDirection,
        /// Payload bytes in flight.
        bytes: usize,
    },
    /// The resident weights failed their parity check (SRAM upset). The
    /// device rejects every invocation until a pristine model is
    /// reloaded via [`crate::Device::load_model`].
    WeightCorruption,
    /// The device hung and the invocation blew its watchdog deadline.
    DeviceHang {
        /// Simulated seconds the invocation would have taken.
        elapsed_s: f64,
        /// The deadline that fired.
        deadline_s: f64,
    },
    /// A link or fault configuration value was out of range.
    InvalidConfig(String),
}

impl SimError {
    /// Whether this error is a (detected) device fault that a driver may
    /// recover from — by retrying, reloading the model, or both — as
    /// opposed to a caller bug like a shape mismatch.
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            SimError::TransientInvokeFailure
                | SimError::LinkCorruption { .. }
                | SimError::WeightCorruption
                | SimError::DeviceHang { .. }
        )
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoModelLoaded => write!(f, "no model loaded on device"),
            SimError::BatchWidth { expected, actual } => {
                write!(
                    f,
                    "batch has {actual} features, loaded model expects {expected}"
                )
            }
            SimError::BufferOverflow {
                required,
                available,
            } => write!(
                f,
                "model needs {required} bytes of on-chip buffer, device has {available}"
            ),
            SimError::AccumulatorDepth { depth, max } => write!(
                f,
                "fully-connected stage reduces over {depth} inputs; \
                 the i32 accumulator is exact only up to {max}"
            ),
            SimError::Nn(e) => write!(f, "model error: {e}"),
            SimError::TransientInvokeFailure => {
                write!(f, "transient dispatch failure, invocation never started")
            }
            SimError::LinkCorruption { direction, bytes } => {
                write!(f, "{direction} payload of {bytes} bytes failed link CRC")
            }
            SimError::WeightCorruption => write!(
                f,
                "resident weights failed parity (SRAM upset); reload the model"
            ),
            SimError::DeviceHang {
                elapsed_s,
                deadline_s,
            } => write!(
                f,
                "device hang: invocation needed {elapsed_s:.6}s, watchdog fired at {deadline_s:.6}s"
            ),
            SimError::InvalidConfig(msg) => write!(f, "invalid simulator config: {msg}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for SimError {
    fn from(e: NnError) -> Self {
        SimError::Nn(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(
            SimError::NoModelLoaded.to_string(),
            "no model loaded on device"
        );
        assert!(SimError::BatchWidth {
            expected: 4,
            actual: 5
        }
        .to_string()
        .contains("expects 4"));
        assert!(SimError::BufferOverflow {
            required: 10,
            available: 5
        }
        .to_string()
        .contains("10 bytes"));
        let depth = SimError::AccumulatorDepth {
            depth: 40_000,
            max: 33_025,
        };
        assert!(depth.to_string().contains("40000 inputs"));
        assert!(!depth.is_fault());
    }

    #[test]
    fn fault_variants_display_and_classify() {
        let faults = [
            SimError::TransientInvokeFailure,
            SimError::LinkCorruption {
                direction: LinkDirection::HostToDevice,
                bytes: 128,
            },
            SimError::WeightCorruption,
            SimError::DeviceHang {
                elapsed_s: 0.2,
                deadline_s: 0.1,
            },
        ];
        for e in &faults {
            assert!(e.is_fault(), "{e}");
            assert!(!e.to_string().is_empty());
        }
        assert!(!SimError::NoModelLoaded.is_fault());
        assert!(!SimError::InvalidConfig("x".into()).is_fault());
        assert!(SimError::LinkCorruption {
            direction: LinkDirection::DeviceToHost,
            bytes: 5
        }
        .to_string()
        .contains("device-to-host"));
        assert!(SimError::InvalidConfig("bad rate".into())
            .to_string()
            .contains("bad rate"));
    }

    #[test]
    fn nn_error_converts() {
        let e: SimError = NnError::EmptyModel.into();
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
