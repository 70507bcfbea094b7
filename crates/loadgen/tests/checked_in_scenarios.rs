//! Every checked-in scenario under `scenarios/` must parse, name at least
//! one tenant and describe a non-empty request trace — a malformed file would otherwise surface only
//! when the full bench harness replays it.

use qufem_loadgen::Scenario;
use std::path::Path;

#[test]
fn all_checked_in_scenarios_parse() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut seen = 0usize;
    for entry in std::fs::read_dir(&dir).expect("scenarios/ exists at the repo root") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        let scenario =
            Scenario::load(&path).unwrap_or_else(|e| panic!("{} must parse: {e}", path.display()));
        assert!(!scenario.tenants.is_empty(), "{} names no tenant", path.display());
        assert!(scenario.total_requests() > 0, "{} describes an empty trace", path.display());
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default();
        assert_eq!(scenario.name, stem, "{}: name must match the file stem", path.display());
        seen += 1;
    }
    assert!(seen >= 7, "expected the checked-in scenario suite, found {seen}");
}
