//! Regenerates Figure 8 (communication rounds and training time).

fn main() {
    lumos_bench::figure::main(env!("CARGO_BIN_NAME"));
}
