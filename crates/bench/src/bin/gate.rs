//! Regression gate over the benchmark records: reads each fresh
//! `BENCH_<name>.json` at the repository root and its baseline copy in
//! the directory given as the one argument, applies
//! `hd_bench::report::CHECKS`, and exits 1 if any check fails or any
//! value it reads is missing or not a number.
//!
//! ```sh
//! cp BENCH_*.json "$BASELINE_DIR"
//! HD_BENCH_SMOKE=1 cargo run --release -p hd-bench --bin fig_pipeline   # and the other fig_* writers
//! cargo run --release -p hd-bench --bin gate -- "$BASELINE_DIR"
//! ```

use std::path::Path;

use hd_bench::report::{bench_report_path, gate, BenchRecord, CHECKS};

fn read(path: &Path) -> Result<BenchRecord, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    BenchRecord::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_dir] = args.as_slice() else {
        eprintln!("usage: gate <baseline-dir>");
        std::process::exit(2);
    };
    let mut benches: Vec<&str> = CHECKS.iter().map(|c| c.bench).collect();
    benches.dedup();
    let mut failures = Vec::new();
    for bench in benches {
        let baseline = Path::new(baseline_dir).join(format!("BENCH_{bench}.json"));
        match read(&bench_report_path(bench)).and_then(|f| Ok((f, read(&baseline)?))) {
            Ok((fresh, baseline)) => {
                let failed = gate(bench, &fresh, &baseline);
                println!("{bench}: {} check(s) failed", failed.len());
                failures.extend(failed);
            }
            Err(e) => failures.push(e),
        }
    }
    for failure in &failures {
        println!("FAIL: {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
