//! Helpers shared by the integration suites.

pub mod laws;
