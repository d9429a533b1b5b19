//! Executes every declared SDF schedule through the generic runtime,
//! pins the measured elapsed time against the analyzer's predicted
//! critical path, measures the two-device serving schedule's simulated
//! gain, and writes the machine-readable `BENCH_schedule.json` baseline
//! at the repository root. See `hd_bench::experiments::fig_schedule_report`.

fn main() {
    let (table, record) = hd_bench::experiments::fig_schedule_report();
    hd_bench::report::emit(&table, &record);
}
