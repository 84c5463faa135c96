//! Perf trajectory: scalar vs bit-sliced comparison backends under the
//! real OT circuits — mean ns per 48-bit comparison and MCMC iterations
//! per second. Writes the machine-readable `BENCH_perf.json` record
//! (`--json PATH` to relocate) that CI asserts the bit-sliced win on.
use lumos_bench::{emit, perf, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse();
    let report = perf::run(&args);
    perf::table(&report).print();
    let doc = emit::document("perf_compare", None, &args, report.record());
    emit::write(&doc, &args, "BENCH_perf.json");
}
