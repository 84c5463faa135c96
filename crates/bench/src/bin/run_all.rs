//! Runs every table/figure reproduction in sequence and prints the paper's
//! headline claims computed from the measured results.
use lumos_bench::figure::{self, Value, FIGURES};
use lumos_bench::{fig7, table1, HarnessArgs};
use lumos_common::table::{fmt2, Table};

/// Headline claims (abstract): accuracy increase vs the federated
/// baseline, communication-round and training-time savings — each the mean
/// of a figure column over its rows. A line: the claim, the paper's number,
/// the figure, the column.
const HEADLINE: [(&str, &str, &str, Value); 3] = [
    (
        "accuracy increase vs naive FedGNN (%)",
        "39.48",
        "fig3_supervised",
        Value::Gain("Lumos", "Naive FedGNN", figure::TEST),
    ),
    (
        "inter-device communication saved (%)",
        "35.16",
        "fig8_system_cost",
        Value::Saved("Lumos", "w.o. TT", figure::MESSAGES),
    ),
    (
        "training time saved (%)",
        "17.74",
        "fig8_system_cost",
        Value::Saved("Lumos", "w.o. TT", figure::EPOCH_SECS),
    ),
];

fn main() {
    let args = HarnessArgs::parse();
    println!(
        "# Lumos reproduction — full experiment suite ({:?})\n",
        args.scale
    );

    table1::run(args.scale).print();
    fig7::table(&fig7::run(&args)).print();
    let mut measured = Vec::new();
    for figure in &FIGURES {
        let rows = figure.run(&args);
        figure.tables(&rows).iter().for_each(Table::print);
        measured.push((figure.name, rows));
    }

    let mut t = Table::new(
        "Headline claims (paper abstract: +39.48% accuracy, −35.16% comm, −17.74% time)",
        &["claim", "paper", "measured"],
    );
    for (claim, paper, figure, value) in HEADLINE {
        let (_, rows) = measured
            .iter()
            .find(|(name, _)| *name == figure)
            .expect("a figure");
        let mean = rows.iter().map(|r| value.of(r)).sum::<f64>() / rows.len() as f64;
        t.push_row([claim, paper, &fmt2(mean)]);
    }
    t.print();
}
