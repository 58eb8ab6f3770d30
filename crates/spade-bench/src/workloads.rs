//! Workload construction shared by the harness binaries.

use spade_gen::datasets::{Dataset, DatasetSpec};

/// Reads the dataset scale from `SPADE_SCALE` (default 0.01); `SPADE_QUICK`
/// overrides to a tiny smoke scale.
pub fn env_scale() -> f64 {
    if std::env::var("SPADE_QUICK").is_ok_and(|v| v != "0") {
        return 0.001;
    }
    std::env::var("SPADE_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0 && *s <= 1.0)
        .unwrap_or(0.01)
}

/// Deterministic per-dataset seed.
fn seed_for(name: &str) -> u64 {
    name.bytes().fold(0x5AD3u64, |acc, b| acc.wrapping_mul(131).wrapping_add(b as u64))
}

/// All seven Table 3 datasets at the environment scale.
pub fn table3_datasets() -> Vec<Dataset> {
    let scale = env_scale();
    DatasetSpec::table3()
        .into_iter()
        .map(|spec| spec.generate(scale, seed_for(spec.name)))
        .collect()
}

/// The four Grab surrogates only (scalability experiments).
pub fn grab_datasets() -> Vec<Dataset> {
    table3_datasets().into_iter().filter(|d| d.name.starts_with("Grab")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_with_default() {
        // Not setting the env var in tests: default must hold.
        let s = env_scale();
        assert!(s > 0.0 && s <= 1.0);
    }

    #[test]
    fn seeds_differ_across_datasets() {
        assert_ne!(seed_for("Grab1"), seed_for("Grab2"));
    }
}
