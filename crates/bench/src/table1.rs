//! §VIII-A dataset table: generated statistics vs the paper's datasets.
//!
//! Not a [`crate::figure::Figure`]: it trains nothing. Its rows are the
//! generated datasets' own statistics beside the paper's.

use lumos_common::table::Table;
use lumos_data::{Dataset, Scale};
use lumos_graph::generate::edge_homophily;

use crate::emit::{self, Record, Value};
use crate::presets::datasets;

/// Paper-reported statistics for the two datasets: vertices, edges,
/// features and classes.
const PAPER_ROWS: [(&str, [u64; 4]); 2] = [
    ("facebook", [22_470, 170_912, 4_714, 4]),
    ("lastfm", [7_624, 55_612, 128, 18]),
];

/// Builds the dataset table at the given scale.
pub fn run(scale: Scale) -> Table {
    use Value::{Fixed, UInt};
    let record = |ds: Dataset| -> Record {
        let paper = PAPER_ROWS.iter().find(|(name, _)| *name == ds.name);
        let (_, paper) = paper.expect("known dataset");
        let g = &ds.graph;
        let mut record = vec![
            ("dataset", Value::Str(ds.name.clone())),
            ("vertices", UInt(ds.num_nodes() as u64)),
            ("edges", UInt(g.num_edges() as u64)),
            ("features", UInt(ds.feature_dim as u64)),
            ("classes", UInt(ds.num_classes as u64)),
            ("avg deg", Fixed(g.avg_degree(), 1)),
            ("max deg", UInt(g.max_degree() as u64)),
            ("homophily", Fixed(edge_homophily(g, &ds.labels), 2)),
        ];
        let headers = ["paper V", "paper E", "paper d", "paper L"];
        record.extend(headers.into_iter().zip(paper.map(UInt)));
        record
    };
    let records: Vec<Record> = datasets(scale).into_iter().map(record).collect();
    emit::table("Table (§VIII-A): datasets — generated vs paper", &records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_both_datasets() {
        let t = run(Scale::Smoke);
        assert_eq!(t.len(), 2);
        let md = t.to_markdown();
        assert!(md.contains("facebook"));
        assert!(md.contains("lastfm"));
    }
}
