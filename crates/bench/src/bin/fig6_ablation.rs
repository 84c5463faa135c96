//! Regenerates Figure 6 (ablation study).

fn main() {
    lumos_bench::figure::main(env!("CARGO_BIN_NAME"));
}
