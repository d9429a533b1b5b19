//! A two-device server's serve session leaves no thread behind.
//!
//! Each `TwoDeviceServer` starts one persistent stage worker (the score
//! stage of its serve session) when it is built, and dropping the server
//! must stop and join it — also after a request that quarantined devices
//! and drained stages to a spare and the host. The test counts the
//! process's threads in `/proc/self/task` (Linux only; elsewhere it does
//! nothing) and starts no thread of its own, so this file holds this one
//! test: the harness runs nothing beside it.

use hdc::{HdcModel, TrainConfig};
use hyperedge::{PipelineConfig, TwoDeviceServer};
use integration_tests::clustered_dataset;
use tpu_sim::FaultConfig;

const SERVERS: usize = 20;

/// Threads of this process right now.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .count()
}

/// Waits until the thread count reads `want`, for at most two seconds:
/// a joined thread can stay listed for a moment while the kernel
/// finishes its exit. Returns the last count read.
fn settle_at(want: usize) -> usize {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    loop {
        let now = threads();
        if now == want || std::time::Instant::now() >= deadline {
            return now;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

#[test]
fn dropped_servers_join_their_session_workers() {
    if !cfg!(target_os = "linux") {
        return;
    }
    let (features, labels) = clustered_dataset(12, 10, 3, 0.4, 0x7EA2);
    let config = TrainConfig::new(256).with_iterations(2).with_seed(0x7EA3);
    let (model, _) = HdcModel::fit(&features, &labels, 3, &config).unwrap();
    let clean = PipelineConfig::new(256).with_batches(256, 8);
    let mut faulted = clean.clone();
    faulted.device.fault = FaultConfig::default()
        .with_seed(0x7EA4)
        .with_transient_rate(1.0);

    let before = threads();
    let mut servers = Vec::with_capacity(SERVERS);
    for i in 0..SERVERS {
        let server = if i == SERVERS / 2 {
            let server = TwoDeviceServer::with_spares(&model, &faulted, &features, 1).unwrap();
            let outcome = server.predict_supervised(&features).unwrap();
            assert!(outcome.is_degraded(), "every device fails at rate 1.0");
            server
        } else {
            let server = TwoDeviceServer::new(&model, &clean, &features).unwrap();
            assert!(!server.predict_supervised(&features).unwrap().is_degraded());
            server
        };
        servers.push(server);
    }
    assert_eq!(
        settle_at(before + SERVERS),
        before + SERVERS,
        "each live server keeps exactly one session worker"
    );
    drop(servers);
    assert_eq!(
        settle_at(before),
        before,
        "a dropped server joins its worker"
    );
}
