//! Scale sweep: flat vs hierarchical aggregation at 4k / 32k / 100k
//! devices — simulated epoch makespan, server bytes per round, peak
//! ledger entries, and wall µs per simulated device. Writes the
//! machine-readable `BENCH_scale.json` record (`--json PATH` to
//! relocate) that CI asserts the O(aggregators) server traffic on.
use lumos_bench::{emit, scale, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse();
    let rows = scale::run(&args);
    emit::table(&rows).print();
    let sections = vec![("rows", emit::rows(&rows))];
    let doc = emit::document("scale_sweep", None, &args, sections);
    emit::write(&doc, &args, "BENCH_scale.json");
}
