//! Scale sweep: flat vs hierarchical aggregation at 4k / 32k / 100k
//! devices — simulated epoch makespan, server bytes per round, peak
//! ledger entries, and wall µs per simulated device. Writes the
//! machine-readable `BENCH_scale.json` record (`--json PATH` to
//! relocate) that CI asserts the O(aggregators) server traffic on.
use lumos_bench::emit::{self, Row};
use lumos_bench::scale::{self, ScaleRow};
use lumos_bench::HarnessArgs;

fn main() {
    let args = HarnessArgs::parse();
    let rows = emit::records(&scale::run(&args));
    emit::table(ScaleRow::TITLE, &rows).print();
    let sections = vec![("rows", emit::rows(rows))];
    let doc = emit::document("scale_sweep", None, &args, sections);
    emit::write(&doc, &args, "BENCH_scale.json");
}
