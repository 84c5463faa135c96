//! Regenerates Figure 5 (privacy-parameter sensitivity).

fn main() {
    lumos_bench::figure::main(env!("CARGO_BIN_NAME"));
}
