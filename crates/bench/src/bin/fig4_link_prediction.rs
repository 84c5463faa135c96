//! Regenerates Figure 4 (link-prediction ROC-AUC).

fn main() {
    lumos_bench::figure::main(env!("CARGO_BIN_NAME"));
}
