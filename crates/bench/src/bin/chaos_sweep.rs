//! Chaos sweep: accuracy, makespan, and recovery counters under seeded
//! fault injection — a message-loss × crash-rate grid plus one
//! aggregator-outage row on the hierarchical straggler-tail fleet (full
//! mode adds churn). Also writes the machine-readable `BENCH_chaos.json`
//! record the CI smoke gate parses (`--json PATH` to relocate).
use lumos_bench::{chaos, emit, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse();
    let rows = chaos::run(&args);
    emit::table(&rows).print();
    let sections = vec![("rows", emit::rows(&rows))];
    let doc = emit::document("chaos_sweep", Some(args.scale), &args, sections);
    emit::write(&doc, &args, "BENCH_chaos.json");
}
