//! Sweeps injected transient-fault rates through the supervised
//! two-device server, asserts every run recovers bit-exact predictions,
//! and writes the machine-readable `BENCH_resilience.json` baseline at
//! the repository root. See `hd_bench::experiments::fig_resilience_report`.

fn main() {
    let (table, record) = hd_bench::experiments::fig_resilience_report();
    hd_bench::report::emit(&table, &record);
}
