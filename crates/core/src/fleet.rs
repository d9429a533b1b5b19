//! A health-tracked pool of simulated accelerators with fleet-level
//! failover.
//!
//! Retries, backoff and deadlines belong to the runtime's
//! [`Supervision`] ([`hd_dataflow::runtime`]); everything a device
//! remembers between attempts lives here. A [`DevicePool`] of N
//! simulated devices holds the registry of pristine compiled models and
//! which one is resident on each device, counts consecutive failures
//! per device (`Healthy → Degraded → Quarantined`), reloads pristine
//! weights after an upset, and places work by fingerprint residency.
//! A [`StageSeat`] adds drain-to-sibling failover — when a stage's
//! device is quarantined mid-run, its remaining firings re-bind to a
//! sibling holding (or loading) the same compiled model, falling back
//! to the bit-exact host executor only when the pool is exhausted. The
//! single-device [`TpuBackend`](crate::TpuBackend) invokes through a
//! [`StageSeat`] on a pool of one, where quarantine means draining to
//! the host executor.
//!
//! The host fallback is [`CompiledModel::quantized`]'s int8 forward —
//! the exact arithmetic the simulated device executes — so a drained or
//! exhausted pool still produces **bit-exact** outputs; degradation is a
//! *report* (which devices were lost), never a numeric change.
//!
//! [`Supervision`]: hd_dataflow::runtime::Supervision

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use hd_tensor::Matrix;
use tpu_sim::timing::ModelDims;
use tpu_sim::{Device, DeviceConfig, FaultRecord, LoadReport, SimError};
use wide_nn::compile::CompiledModel;

pub use tpu_sim::{FaultConfig, FaultKind};

/// Health of one pooled device. Transitions are monotone within a
/// pool's lifetime: a fault degrades a healthy device, enough
/// consecutive failures quarantine it, and quarantine is permanent.
/// Successes reset the consecutive-failure count but never promote a
/// degraded device back to healthy — the scar is part of the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceHealth {
    /// No faults observed.
    Healthy,
    /// At least one fault observed; still serving.
    Degraded,
    /// Permanently removed from placement; remaining work drains to
    /// siblings (or the host executor).
    Quarantined,
}

/// Book-keeping for one pooled device.
#[derive(Debug, Clone, Copy)]
struct SeatState {
    health: DeviceHealth,
    consecutive_failures: u32,
    /// Fingerprint of the compiled model resident on the device.
    resident: Option<u64>,
    leased: bool,
}

/// Per-ordinal summary of what a pooled device reported during one
/// supervised run: the slice of its [`FaultTrace`] the run appended.
///
/// [`FaultTrace`]: tpu_sim::FaultTrace
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceFaultSummary {
    /// Device ordinal within the pool (its schedule `Resource::Device`
    /// index).
    pub ordinal: usize,
    /// Fault records the device appended during the observed window.
    pub records: Vec<FaultRecord>,
}

/// Callback told about every model load a pool performs.
type LoadObserver = Box<dyn Fn(usize, &LoadReport) + Send + Sync>;

/// A pool of N simulated devices sharing a registry of pristine
/// compiled models, with health tracking and residency-aware placement.
///
/// Ordinals are dense (`0..n`) and match the devices' schedule
/// resources, so a graph stage pinned to `Resource::Device(k)` binds
/// pool member `k`.
pub struct DevicePool {
    devices: Vec<Device>,
    seats: Mutex<Vec<SeatState>>,
    /// Pristine compiled models by fingerprint — the reload source for
    /// weight-upset recovery and the host-fallback executor. Shared with
    /// the devices they are loaded on, so a load adds no copy.
    models: Mutex<HashMap<u64, Arc<CompiledModel>>>,
    /// Consecutive failed attempts that quarantine a device.
    quarantine_threshold: u32,
    on_load: Option<LoadObserver>,
}

impl std::fmt::Debug for DevicePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DevicePool")
            .field("devices", &self.devices.len())
            .field("seats", &*self.seats.lock())
            .finish_non_exhaustive()
    }
}

impl DevicePool {
    /// Creates a pool of `n` devices (ordinals `0..n`) sharing `config`.
    /// A device is quarantined once `quarantine_threshold` consecutive
    /// invocations on it fail (see
    /// [`PipelineConfig::quarantine_threshold`](crate::PipelineConfig::quarantine_threshold)).
    #[must_use]
    pub fn new(config: &DeviceConfig, n: usize, quarantine_threshold: u32) -> Self {
        let devices = (0..n)
            .map(|ordinal| Device::with_ordinal(config.clone(), ordinal))
            .collect();
        DevicePool {
            devices,
            seats: Mutex::new(vec![
                SeatState {
                    health: DeviceHealth::Healthy,
                    consecutive_failures: 0,
                    resident: None,
                    leased: false,
                };
                n
            ]),
            models: Mutex::new(HashMap::new()),
            quarantine_threshold,
            on_load: None,
        }
    }

    /// Calls `observer(ordinal, report)` after every model load the pool
    /// performs — placement loads and pristine reloads alike — so an
    /// owner can charge them to its own ledger.
    #[must_use]
    pub fn on_load(
        mut self,
        observer: impl Fn(usize, &LoadReport) + Send + Sync + 'static,
    ) -> Self {
        self.on_load = Some(Box::new(observer));
        self
    }

    /// Number of pooled devices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True for an empty pool (every lease falls through to the host).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Registers a pristine compiled model under its fingerprint `key`.
    /// The copy is the reload source after weight upsets and the
    /// bit-exact host fallback once the pool is exhausted.
    pub fn register(&self, key: u64, model: CompiledModel) {
        self.models.lock().insert(key, Arc::new(model));
    }

    /// Shape of the registered model `key`, `None` if it was never
    /// registered.
    #[must_use]
    pub fn model_dims(&self, key: u64) -> Option<ModelDims> {
        self.models
            .lock()
            .get(&key)
            .map(|model| ModelDims::from_compiled(model))
    }

    /// Number of registered models.
    #[must_use]
    pub fn model_count(&self) -> usize {
        self.models.lock().len()
    }

    /// The device at `ordinal`.
    ///
    /// # Panics
    ///
    /// If `ordinal` is out of range.
    #[must_use]
    pub fn device(&self, ordinal: usize) -> &Device {
        &self.devices[ordinal]
    }

    /// Health of the device at `ordinal`.
    ///
    /// # Panics
    ///
    /// If `ordinal` is out of range.
    #[must_use]
    pub fn health(&self, ordinal: usize) -> DeviceHealth {
        self.seats.lock()[ordinal].health
    }

    /// Ordinals currently quarantined, ascending.
    #[must_use]
    pub fn quarantined(&self) -> Vec<usize> {
        self.seats
            .lock()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.health == DeviceHealth::Quarantined)
            .map(|(i, _)| i)
            .collect()
    }

    /// Leases a device for model `key`, loading the model if it is not
    /// already resident. Placement prefers, in order: a device with
    /// `key` resident (no reload cost), then an idle device with
    /// nothing resident, then any idle non-quarantined device (evicting
    /// its resident model). Returns `None` when the pool is exhausted —
    /// the caller degrades to [`DevicePool::host_forward`].
    ///
    /// # Errors
    ///
    /// `key` was never [`register`](DevicePool::register)ed, or the
    /// model load fails.
    pub fn lease(&self, key: u64) -> crate::Result<Option<usize>> {
        let mut seats = self.seats.lock();
        let available = |s: &SeatState| s.health != DeviceHealth::Quarantined && !s.leased;
        let chosen = seats
            .iter()
            .position(|s| available(s) && s.resident == Some(key))
            .or_else(|| {
                seats
                    .iter()
                    .position(|s| available(s) && s.resident.is_none())
            })
            .or_else(|| seats.iter().position(available));
        let Some(ordinal) = chosen else {
            return Ok(None);
        };
        if seats[ordinal].resident != Some(key) {
            self.load_pristine(&mut seats[ordinal], ordinal, key)?;
        }
        seats[ordinal].leased = true;
        Ok(Some(ordinal))
    }

    /// Returns a leased device to the pool (model stays resident).
    pub fn release(&self, ordinal: usize) {
        if let Some(seat) = self.seats.lock().get_mut(ordinal) {
            seat.leased = false;
        }
    }

    /// Permanently quarantines `ordinal` and releases its lease.
    pub fn quarantine(&self, ordinal: usize) {
        if let Some(seat) = self.seats.lock().get_mut(ordinal) {
            seat.health = DeviceHealth::Quarantined;
            seat.leased = false;
        }
    }

    /// One invocation on pooled device `ordinal` for model `key` under
    /// the firing's watchdog `deadline_s`, with the fleet's health
    /// book-keeping folded in: success resets the consecutive-failure
    /// count; a device fault degrades the device, quarantines it once
    /// the pool's quarantine threshold of consecutive failures
    /// accumulates, and otherwise reloads the pristine model after a
    /// weight upset. The typed error is always returned —
    /// retry/escalation belongs to the caller's
    /// [`Supervision`](hd_dataflow::runtime::Supervision) policy, whose
    /// deadline the caller passes through from
    /// [`FiringCtx::deadline_s`](hd_dataflow::runtime::FiringCtx::deadline_s).
    ///
    /// # Errors
    ///
    /// The device's [`SimError`] (faults and non-faults alike), or a
    /// pristine-reload failure.
    ///
    /// # Panics
    ///
    /// If `ordinal` is out of range.
    pub fn invoke(
        &self,
        ordinal: usize,
        key: u64,
        batch: &Matrix,
        deadline_s: Option<f64>,
    ) -> crate::Result<Matrix> {
        let e = match self.devices[ordinal].invoke_overlapped_with_deadline(batch, deadline_s) {
            Ok((out, _stats)) => {
                self.seats.lock()[ordinal].consecutive_failures = 0;
                return Ok(out);
            }
            Err(e) => e,
        };
        if e.is_fault() {
            let mut seats = self.seats.lock();
            let seat = &mut seats[ordinal];
            seat.consecutive_failures += 1;
            if seat.consecutive_failures >= self.quarantine_threshold {
                seat.health = DeviceHealth::Quarantined;
                seat.leased = false;
            } else if seat.health == DeviceHealth::Healthy {
                seat.health = DeviceHealth::Degraded;
            }
            if e == SimError::WeightCorruption && seat.health != DeviceHealth::Quarantined {
                self.load_pristine(seat, ordinal, key)?;
            }
        }
        Err(e.into())
    }

    /// Loads the pristine registered copy of `key` onto `ordinal` and
    /// marks it resident — the one place the pool loads a model, for
    /// placement and weight-upset recovery alike.
    fn load_pristine(&self, seat: &mut SeatState, ordinal: usize, key: u64) -> crate::Result<()> {
        let model = self.models.lock().get(&key).cloned().ok_or_else(|| {
            crate::FrameworkError::InvalidConfig(format!(
                "model {key:#x} was never registered with the pool"
            ))
        })?;
        let report = self.devices[ordinal].load_model(model)?;
        seat.resident = Some(key);
        if let Some(observer) = &self.on_load {
            observer(ordinal, &report);
        }
        Ok(())
    }

    /// Flips weight bits of the model resident on `ordinal` (see
    /// [`Device::inject_weight_faults`]) and drops its residency, so the
    /// next lease reloads the pristine copy instead of trusting the
    /// faulted weights to still match their fingerprint. Returns the
    /// number of flipped bits.
    ///
    /// # Errors
    ///
    /// The device's error if no model is resident.
    ///
    /// # Panics
    ///
    /// If `ordinal` is out of range.
    pub fn inject_weight_faults(
        &self,
        ordinal: usize,
        rate: f64,
        rng: &mut hd_tensor::rng::DetRng,
    ) -> crate::Result<usize> {
        let mut seats = self.seats.lock();
        let flipped = self.devices[ordinal].inject_weight_faults(rate, rng)?;
        seats[ordinal].resident = None;
        Ok(flipped)
    }

    /// The bit-exact host executor for model `key`: the compiled
    /// model's int8 quantized forward — the exact datapath the
    /// simulated device runs, so outputs match device outputs bit for
    /// bit (pinned by the device's own equivalence test).
    ///
    /// # Errors
    ///
    /// `key` was never registered, or the forward pass fails.
    pub fn host_forward(&self, key: u64, batch: &Matrix) -> crate::Result<Matrix> {
        let models = self.models.lock();
        let model = models.get(&key).ok_or_else(|| {
            crate::FrameworkError::InvalidConfig(format!(
                "model {key:#x} was never registered with the pool"
            ))
        })?;
        Ok(model.quantized().forward(batch)?)
    }

    /// Per-device fault-trace lengths right now — pass to
    /// [`DevicePool::fault_delta`] after a run to recover exactly the
    /// records that run appended.
    #[must_use]
    pub fn fault_snapshot(&self) -> Vec<usize> {
        self.devices
            .iter()
            .map(|d| d.fault_trace().records().len())
            .collect()
    }

    /// The fault records every pooled device appended since `snapshot`
    /// ([`DevicePool::fault_snapshot`]), ordinals with no new records
    /// omitted.
    #[must_use]
    pub fn fault_delta(&self, snapshot: &[usize]) -> Vec<DeviceFaultSummary> {
        self.devices
            .iter()
            .enumerate()
            .filter_map(|(ordinal, device)| {
                let trace = device.fault_trace();
                let skip = snapshot.get(ordinal).copied().unwrap_or(0);
                let records: Vec<FaultRecord> =
                    trace.records().iter().skip(skip).copied().collect();
                if records.is_empty() {
                    None
                } else {
                    Some(DeviceFaultSummary { ordinal, records })
                }
            })
            .collect()
    }
}

/// Where a [`StageSeat`] currently executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seat {
    /// On pooled device `ordinal`.
    Device(usize),
    /// On the pool's bit-exact host executor.
    Host,
}

/// One schedule stage's seat in the fleet: the device currently bound
/// to the stage, with drain-to-sibling failover. Built to back a
/// [`Quarantine`](hd_dataflow::runtime::Escalation::Quarantine)
/// escalation: the supervised executor invokes through the seat, and
/// the rebind handler calls [`StageSeat::rebind`] — quarantining the
/// current device and leasing a sibling that holds (or loads) the same
/// compiled model, degrading to the host executor only when the pool is
/// exhausted. Rebinding therefore always succeeds, and outputs stay
/// bit-exact throughout. The seat shares ownership of its pool, so a
/// persistent stage worker can own it.
pub struct StageSeat {
    pool: Arc<DevicePool>,
    key: u64,
    seat: Mutex<Seat>,
}

impl StageSeat {
    /// Seats a stage for model `key`, leasing a pooled device (host
    /// fallback immediately if the pool is already exhausted).
    ///
    /// # Errors
    ///
    /// `key` was never registered, or the initial model load fails.
    pub fn new(pool: Arc<DevicePool>, key: u64) -> crate::Result<Self> {
        let seat = StageSeat {
            pool,
            key,
            seat: Mutex::new(Seat::Host),
        };
        seat.lease()?;
        Ok(seat)
    }

    /// Seats the stage again, as [`StageSeat::new`] does: leases a
    /// pooled device for the seat's model, or falls back to the host
    /// when the pool is exhausted. For a seat that outlives one run,
    /// after [`StageSeat::release`].
    ///
    /// # Errors
    ///
    /// `key` was never registered, or the model load fails.
    pub fn lease(&self) -> crate::Result<()> {
        *self.seat.lock() = match self.pool.lease(self.key)? {
            Some(ordinal) => Seat::Device(ordinal),
            None => Seat::Host,
        };
        Ok(())
    }

    /// The pooled ordinal currently seated, `None` once on the host.
    #[must_use]
    pub fn ordinal(&self) -> Option<usize> {
        match *self.seat.lock() {
            Seat::Device(ordinal) => Some(ordinal),
            Seat::Host => None,
        }
    }

    /// True once the stage has drained to the host executor.
    #[must_use]
    pub fn is_host(&self) -> bool {
        matches!(*self.seat.lock(), Seat::Host)
    }

    /// One invocation on the current seat (device with health
    /// book-keeping under the firing's `deadline_s`, or bit-exact host
    /// forward).
    ///
    /// # Errors
    ///
    /// Device faults/errors from the pooled device; host-side shape
    /// errors.
    pub fn invoke(&self, batch: &Matrix, deadline_s: Option<f64>) -> crate::Result<Matrix> {
        let seat = *self.seat.lock();
        match seat {
            Seat::Device(ordinal) => self.pool.invoke(ordinal, self.key, batch, deadline_s),
            Seat::Host => self.pool.host_forward(self.key, batch),
        }
    }

    /// Drains the stage off its current device: quarantines it, leases
    /// a sibling with the same model (loading it if needed), and falls
    /// back to the host executor when the pool is exhausted or the
    /// sibling's load fails. Infallible by design — after `rebind` the
    /// stage always has a working, bit-exact executor.
    pub fn rebind(&self) {
        let mut seat = self.seat.lock();
        if let Seat::Device(ordinal) = *seat {
            self.pool.quarantine(ordinal);
            *seat = match self.pool.lease(self.key) {
                Ok(Some(sibling)) => Seat::Device(sibling),
                Ok(None) | Err(_) => Seat::Host,
            };
        }
    }

    /// Releases the seat's device lease (no-op on the host).
    pub fn release(&self) {
        if let Seat::Device(ordinal) = *self.seat.lock() {
            self.pool.release(ordinal);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CALIBRATION_ROWS;
    use crate::wide_model;
    use hd_tensor::rng::DetRng;
    use hdc::{HdcModel, TrainConfig};
    use tpu_sim::FaultConfig;
    use wide_nn::compile;

    fn compiled_encoder() -> (CompiledModel, Matrix) {
        let mut rng = DetRng::new(171);
        let mut features = Matrix::random_normal(40, 8, &mut rng);
        let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
        for (i, &l) in labels.iter().enumerate() {
            features.row_mut(i)[l] += 3.0;
        }
        let config = TrainConfig::new(128).with_iterations(2).with_seed(172);
        let (model, _) = HdcModel::fit(&features, &labels, 2, &config).unwrap();
        let rows = features.rows().min(CALIBRATION_ROWS);
        let cal = features.slice_rows(0, rows).unwrap();
        let compiled = compile::compile(
            &wide_model::encoder_network(model.encoder()).unwrap(),
            &cal,
            &wide_nn::TargetSpec::default(),
        )
        .unwrap();
        (compiled, features)
    }

    #[test]
    fn placement_prefers_residency_then_empty_seats() {
        let (compiled, _) = compiled_encoder();
        let pool = DevicePool::new(&DeviceConfig::default(), 3, 4);
        pool.register(7, compiled.clone());
        pool.register(8, compiled);

        let first = pool.lease(7).unwrap().unwrap();
        assert_eq!(first, 0);
        pool.release(first);
        // Residency wins: re-leasing the same key lands on the same
        // device, not a fresh one.
        assert_eq!(pool.lease(7).unwrap(), Some(0));
        // A different key prefers an empty seat over evicting.
        assert_eq!(pool.lease(8).unwrap(), Some(1));
        // Both leased; a second lease of key 7 takes the last empty
        // seat and loads there.
        assert_eq!(pool.lease(7).unwrap(), Some(2));
        // Pool exhausted.
        assert_eq!(pool.lease(8).unwrap(), None);
    }

    #[test]
    fn unregistered_key_is_a_typed_error() {
        let pool = DevicePool::new(&DeviceConfig::default(), 1, 4);
        let err = pool.lease(99).unwrap_err();
        assert!(matches!(err, crate::FrameworkError::InvalidConfig(_)));
    }

    #[test]
    fn faults_degrade_then_quarantine_at_the_breaker_threshold() {
        let (compiled, features) = compiled_encoder();
        let config = DeviceConfig {
            fault: FaultConfig::default()
                .with_seed(1201)
                .with_transient_rate(1.0),
            ..DeviceConfig::default()
        };
        let pool = DevicePool::new(&config, 2, 2);
        pool.register(7, compiled);
        let ordinal = pool.lease(7).unwrap().unwrap();

        assert_eq!(pool.health(ordinal), DeviceHealth::Healthy);
        pool.invoke(ordinal, 7, &features, None).unwrap_err();
        assert_eq!(pool.health(ordinal), DeviceHealth::Degraded);
        pool.invoke(ordinal, 7, &features, None).unwrap_err();
        assert_eq!(pool.health(ordinal), DeviceHealth::Quarantined);
        assert_eq!(pool.quarantined(), vec![ordinal]);
        // A quarantined device is out of placement: the next lease
        // lands on the sibling.
        assert_eq!(pool.lease(7).unwrap(), Some(1));
    }

    #[test]
    fn weight_upset_reloads_the_pristine_model() {
        let (compiled, features) = compiled_encoder();
        let config = DeviceConfig {
            fault: FaultConfig::default()
                .with_seed(1301)
                .with_weight_upset_rate(1.0),
            ..DeviceConfig::default()
        };
        // Generous threshold so the reload path is what we observe.
        let pool = DevicePool::new(&config, 1, 100);
        pool.register(7, compiled);
        let ordinal = pool.lease(7).unwrap().unwrap();

        let err = pool.invoke(ordinal, 7, &features, None).unwrap_err();
        assert!(err.device_fault());
        // The pool already reloaded the pristine copy.
        assert!(!pool.device(ordinal).weights_corrupt());
        assert_eq!(pool.health(ordinal), DeviceHealth::Degraded);
    }

    #[test]
    fn injected_faults_compute_until_the_pristine_reload() {
        // Injected faults must reach the weights the device computes
        // from, and the pool's pristine reload must restore them bit for
        // bit.
        let (compiled, features) = compiled_encoder();
        let mut faulted = compiled.clone();
        let pool = DevicePool::new(&DeviceConfig::default(), 1, 4);
        pool.register(7, compiled);
        let ordinal = pool.lease(7).unwrap().unwrap();
        let clean = pool.invoke(ordinal, 7, &features, None).unwrap();

        let rate = 0.05;
        let flipped = pool
            .inject_weight_faults(ordinal, rate, &mut DetRng::new(17))
            .unwrap();
        assert_eq!(
            faulted.inject_weight_faults(rate, &mut DetRng::new(17)),
            flipped
        );
        let (on_faulted, _) = pool.device(ordinal).invoke_overlapped(&features).unwrap();
        assert_eq!(on_faulted, faulted.quantized().forward(&features).unwrap());
        assert_ne!(on_faulted, clean);

        pool.release(ordinal);
        assert_eq!(pool.lease(7).unwrap(), Some(ordinal));
        assert_eq!(pool.invoke(ordinal, 7, &features, None).unwrap(), clean);
    }

    #[test]
    fn host_forward_is_bit_exact_with_the_device() {
        let (compiled, features) = compiled_encoder();
        let pool = DevicePool::new(&DeviceConfig::default(), 1, 4);
        pool.register(7, compiled);
        let ordinal = pool.lease(7).unwrap().unwrap();
        let on_device = pool.invoke(ordinal, 7, &features, None).unwrap();
        let on_host = pool.host_forward(7, &features).unwrap();
        assert_eq!(on_device, on_host);
    }

    #[test]
    fn seat_drains_to_sibling_then_host() {
        let (compiled, features) = compiled_encoder();
        let pool = Arc::new(DevicePool::new(&DeviceConfig::default(), 2, 4));
        pool.register(7, compiled);
        let seat = StageSeat::new(Arc::clone(&pool), 7).unwrap();
        assert_eq!(seat.ordinal(), Some(0));

        let clean = seat.invoke(&features, None).unwrap();

        seat.rebind();
        assert_eq!(seat.ordinal(), Some(1), "drains to the sibling first");
        assert_eq!(pool.health(0), DeviceHealth::Quarantined);
        assert_eq!(seat.invoke(&features, None).unwrap(), clean);

        seat.rebind();
        assert!(seat.is_host(), "exhausted pool degrades to the host");
        assert_eq!(pool.quarantined(), vec![0, 1]);
        assert_eq!(
            seat.invoke(&features, None).unwrap(),
            clean,
            "host executor is bit-exact with the device datapath"
        );
    }

    #[test]
    fn fault_delta_slices_only_the_observed_window() {
        let (compiled, features) = compiled_encoder();
        let config = DeviceConfig {
            fault: FaultConfig::default()
                .with_seed(1401)
                .with_transient_rate(1.0),
            ..DeviceConfig::default()
        };
        let pool = DevicePool::new(&config, 2, 100);
        pool.register(7, compiled);
        let ordinal = pool.lease(7).unwrap().unwrap();

        pool.invoke(ordinal, 7, &features, None).unwrap_err();
        let snapshot = pool.fault_snapshot();
        pool.invoke(ordinal, 7, &features, None).unwrap_err();
        let delta = pool.fault_delta(&snapshot);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].ordinal, ordinal);
        let full = pool.device(ordinal).fault_trace().records().len();
        assert_eq!(delta[0].records.len(), full - snapshot[ordinal]);
        assert!(!delta[0].records.is_empty());
    }
}
