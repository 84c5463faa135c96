//! Scenario sweep: simulated epoch makespan across heterogeneous-device
//! fleets — trimmed under both balance objectives (tree nodes vs virtual
//! seconds), under the deadline / buffered / async aggregation policies,
//! and untrimmed (Figure 8 extension). `--sensitivity` adds the buffered
//! policy's decay × re-balance-trigger grid. Also writes the
//! machine-readable `BENCH_fig8.json` record (`--json PATH` to relocate).
use lumos_bench::figure::Figure;
use lumos_bench::{emit, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse();
    let rows = Figure::named("fig8_hetero").print(&args);
    let mut grid = Vec::new();
    if args.sensitivity {
        println!();
        grid = Figure::named("fig8_hetero_sensitivity").print(&args);
    }
    let sections = vec![
        ("rows", emit::rows(rows)),
        ("sensitivity", emit::rows(grid)),
    ];
    let doc = emit::document("fig8_hetero", Some(args.scale), &args, sections);
    emit::write(&doc, &args, "BENCH_fig8.json");
}
