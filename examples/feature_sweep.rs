//! When is the accelerator worth it? Sweeps the input feature count from
//! 20 to 700 (the paper's Fig. 10 experiment) and reports the modeled
//! encoding speedup of the accelerator over the host CPU, locating the
//! crossover below which a PAMAP2-like dataset should just stay on the
//! CPU.
//!
//! Run with:
//!
//! ```text
//! cargo run -p hyperedge-examples --bin feature_sweep --release
//! ```

use cpu_model::{cost, Platform};
use hyperedge::runtime;
use tpu_sim::timing::ModelDims;
use tpu_sim::DeviceConfig;

fn main() {
    let d = 10_000;
    let samples = 10_000;
    let encode_batch = 256;
    let device = DeviceConfig::default();
    let host = Platform::MobileI5.spec();

    println!("encoding {samples} samples into d = {d} hypervectors");
    println!(
        "device: {}x{} MXU @ {:.0} MHz, link {:.0} MB/s (+{:.1} ms per invoke), batch {}",
        device.target.array_rows,
        device.target.array_cols,
        device.clock_hz / 1e6,
        device.link.bandwidth_bytes_per_sec / 1e6,
        device.link.per_invoke_latency_s * 1e3,
        encode_batch
    );
    println!();
    println!(
        "{:>9} {:>12} {:>12} {:>9}",
        "features", "cpu_s", "tpu_s", "speedup"
    );

    let mut crossover: Option<usize> = None;
    let mut prev_below = true;
    for &n in &[20, 50, 100, 150, 200, 300, 400, 500, 600, 700] {
        let cpu_s = cost::encode_s(&host, samples, n, d);
        let dims = ModelDims::encoder(n, d);
        let tpu_s = runtime::serial_device_s(&device, &dims, samples, encode_batch)
            + cost::quantize_s(&host, samples * n)
            + cost::quantize_s(&host, samples * d);
        let speedup = cpu_s / tpu_s;
        if prev_below && speedup >= 1.0 {
            crossover = Some(n);
        }
        prev_below = speedup < 1.0;
        println!("{n:>9} {cpu_s:>12.4} {tpu_s:>12.4} {speedup:>8.2}x");
    }

    println!();
    match crossover {
        Some(n) => println!(
            "the accelerator starts paying off at roughly {n} input features — \
             which is why the paper's 27-feature PAMAP2 dataset is its counterexample"
        ),
        None => println!("no crossover in the swept range"),
    }
}
