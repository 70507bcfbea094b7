//! The scenario report: a deterministic, byte-comparable JSON document.
//!
//! Every field of the report is a pure function of `(scenario, seed)`:
//! digests of the trace and the responses, per-tenant request/error
//! accounting, the device version table, the modeled plan-cache hit table,
//! and response-size percentiles (responses are bit-identical across runs,
//! so their sizes are too). Nothing is timed, so two replays write
//! byte-identical JSON.
//!
//! [`Report::determinism_digest`] folds the report into one 16-hex value;
//! two runs agree iff their digests agree, which is what the root
//! package's loadgen tests pin for the checked-in scenarios.

use qufem_core::digest;
use serde::Value;

/// Per-tenant accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Calibrate requests issued.
    pub requests: u64,
    /// Error frames received (expected 0).
    pub errors: u64,
    /// FNV-1a 64 digest over this tenant's response distributions, hex.
    pub response_digest: String,
}

/// Per-device catalog state at the end of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// Device id.
    pub id: String,
    /// Head version after every event fired.
    pub head_version: u64,
    /// Retained versions, ascending.
    pub versions: Vec<u64>,
    /// Calibrate requests served for this device.
    pub requests: u64,
}

/// One fired event, with the catalog version it published (admit-drift).
#[derive(Debug, Clone, PartialEq)]
pub struct EventReport {
    /// 1-based round the event preceded.
    pub round: usize,
    /// `"admit-drift"` or `"reconnect"`.
    pub kind: String,
    /// Target device (admit-drift only).
    pub device: Option<String>,
    /// Version the admit published (admit-drift only).
    pub version: Option<u64>,
    /// Reconnected client indices (reconnect only).
    pub clients: Vec<usize>,
}

/// Deterministic sequential model of the per-version plan caches (the real
/// concurrent hit/miss split races duplicate cold builds, so it lives on
/// stderr, not here).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheModel {
    /// Modeled per-entry capacity (the scenario's `plan_cache`).
    pub capacity: usize,
    /// Modeled hits.
    pub hits: u64,
    /// Modeled misses (cold builds).
    pub misses: u64,
}

/// Percentiles over exact response line sizes in bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct BytePercentiles {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest response.
    pub max: u64,
}

impl BytePercentiles {
    /// Percentiles of a sample set (unsorted input; empty ⇒ all zero).
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return BytePercentiles { p50: 0, p90: 0, p99: 0, max: 0 };
        }
        samples.sort_unstable();
        let at = |q: f64| -> u64 {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
            samples[rank.min(samples.len()) - 1]
        };
        BytePercentiles {
            p50: at(0.50),
            p90: at(0.90),
            p99: at(0.99),
            max: *samples.last().expect("non-empty"),
        }
    }
}

/// The full scenario report (see the module docs for the determinism
/// contract).
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Scenario name.
    pub scenario: String,
    /// Master seed the run replayed.
    pub seed: u64,
    /// Rounds executed.
    pub rounds: usize,
    /// Client connections.
    pub clients: usize,
    /// Arrival process (`"closed"` / `"open"`).
    pub arrival: String,
    /// Wire dialect the clients spoke (`"json"` / `"binary"`).
    pub protocol: String,
    /// Whether the server started prewarmed.
    pub prewarm: bool,
    /// Digest of the scenario file text, hex.
    pub scenario_digest: String,
    /// Digest of the generated request trace, hex.
    pub trace_digest: String,
    /// Digest over every response in `(client, issue order)` order, hex.
    pub response_digest: String,
    /// Total calibrate requests issued.
    pub requests: u64,
    /// Total error frames received.
    pub errors: u64,
    /// Snapshots admitted during the run (setup admits + drift events).
    pub swaps: u64,
    /// Whether every connection observed non-decreasing version echoes per
    /// device.
    pub version_echoes_monotone: bool,
    /// Per-tenant accounting, scenario order.
    pub tenants: Vec<TenantReport>,
    /// Final device table, catalog order.
    pub devices: Vec<DeviceReport>,
    /// Fired events, round order.
    pub events: Vec<EventReport>,
    /// Modeled plan-cache behavior.
    pub cache_model: CacheModel,
    /// Response size percentiles.
    pub response_bytes: BytePercentiles,
}

impl Report {
    /// The complete report as an ordered document: every field, then
    /// `determinism_digest`, the FNV-1a 64 digest of the compact JSON of
    /// the fields before it.
    pub fn to_document(&self) -> Value {
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                (
                    t.name.clone(),
                    Value::Map(vec![
                        ("requests".to_string(), Value::UInt(t.requests)),
                        ("errors".to_string(), Value::UInt(t.errors)),
                        ("response_digest".to_string(), Value::Str(t.response_digest.clone())),
                    ]),
                )
            })
            .collect();
        let devices = self
            .devices
            .iter()
            .map(|d| {
                (
                    d.id.clone(),
                    Value::Map(vec![
                        ("head_version".to_string(), Value::UInt(d.head_version)),
                        (
                            "versions".to_string(),
                            Value::Seq(d.versions.iter().map(|&v| Value::UInt(v)).collect()),
                        ),
                        ("requests".to_string(), Value::UInt(d.requests)),
                    ]),
                )
            })
            .collect();
        let events = self
            .events
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("round".to_string(), Value::UInt(e.round as u64)),
                    ("kind".to_string(), Value::Str(e.kind.clone())),
                ];
                if let Some(device) = &e.device {
                    fields.push(("device".to_string(), Value::Str(device.clone())));
                }
                if let Some(version) = e.version {
                    fields.push(("version".to_string(), Value::UInt(version)));
                }
                if !e.clients.is_empty() {
                    fields.push((
                        "clients".to_string(),
                        Value::Seq(e.clients.iter().map(|&c| Value::UInt(c as u64)).collect()),
                    ));
                }
                Value::Map(fields)
            })
            .collect();
        let mut document = Value::Map(vec![
            ("scenario".to_string(), Value::Str(self.scenario.clone())),
            ("seed".to_string(), Value::UInt(self.seed)),
            ("rounds".to_string(), Value::UInt(self.rounds as u64)),
            ("clients".to_string(), Value::UInt(self.clients as u64)),
            ("arrival".to_string(), Value::Str(self.arrival.clone())),
            ("protocol".to_string(), Value::Str(self.protocol.clone())),
            ("prewarm".to_string(), Value::Bool(self.prewarm)),
            ("scenario_digest".to_string(), Value::Str(self.scenario_digest.clone())),
            ("trace_digest".to_string(), Value::Str(self.trace_digest.clone())),
            ("response_digest".to_string(), Value::Str(self.response_digest.clone())),
            ("requests".to_string(), Value::UInt(self.requests)),
            ("errors".to_string(), Value::UInt(self.errors)),
            ("swaps".to_string(), Value::UInt(self.swaps)),
            ("version_echoes_monotone".to_string(), Value::Bool(self.version_echoes_monotone)),
            ("tenants".to_string(), Value::Map(tenants)),
            ("devices".to_string(), Value::Map(devices)),
            ("events".to_string(), Value::Seq(events)),
            (
                "cache_model".to_string(),
                Value::Map(vec![
                    ("capacity".to_string(), Value::UInt(self.cache_model.capacity as u64)),
                    ("hits".to_string(), Value::UInt(self.cache_model.hits)),
                    ("misses".to_string(), Value::UInt(self.cache_model.misses)),
                ]),
            ),
            (
                "response_bytes".to_string(),
                Value::Map(vec![
                    ("p50".to_string(), Value::UInt(self.response_bytes.p50)),
                    ("p90".to_string(), Value::UInt(self.response_bytes.p90)),
                    ("p99".to_string(), Value::UInt(self.response_bytes.p99)),
                    ("max".to_string(), Value::UInt(self.response_bytes.max)),
                ]),
            ),
        ]);
        let body = serde_json::to_string(&document).expect("value serializes");
        let digest = digest::digest_hex(digest::digest_str(&body));
        if let Value::Map(fields) = &mut document {
            fields.push(("determinism_digest".to_string(), Value::Str(digest)));
        }
        document
    }

    /// The report's `determinism_digest`, hex. Two runs of a scenario
    /// replayed deterministically iff their digests match.
    pub fn determinism_digest(&self) -> String {
        let document = self.to_document();
        let digest = document.get("determinism_digest").and_then(Value::as_str);
        digest.expect("to_document stamps the digest").to_string()
    }

    /// Pretty JSON of the complete report (the `bench_summary.json`-style
    /// artifact `qufem loadgen` writes).
    pub fn to_json_pretty(&self) -> String {
        let mut out = serde_json::to_string_pretty(&self.to_document()).expect("value serializes");
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            scenario: "s".into(),
            seed: 1,
            rounds: 2,
            clients: 2,
            arrival: "closed".into(),
            protocol: "json".into(),
            prewarm: true,
            scenario_digest: "aa".into(),
            trace_digest: "bb".into(),
            response_digest: "cc".into(),
            requests: 4,
            errors: 0,
            swaps: 1,
            version_echoes_monotone: true,
            tenants: vec![TenantReport {
                name: "t".into(),
                requests: 4,
                errors: 0,
                response_digest: "dd".into(),
            }],
            devices: vec![DeviceReport {
                id: "d".into(),
                head_version: 1,
                versions: vec![0, 1],
                requests: 4,
            }],
            events: vec![EventReport {
                round: 2,
                kind: "admit-drift".into(),
                device: Some("d".into()),
                version: Some(1),
                clients: vec![],
            }],
            cache_model: CacheModel { capacity: 8, hits: 3, misses: 1 },
            response_bytes: BytePercentiles { p50: 10, p90: 12, p99: 12, max: 12 },
        }
    }

    #[test]
    fn the_digest_is_the_last_field_and_folds_the_fields_before_it() {
        let Value::Map(mut fields) = sample().to_document() else { panic!("a report is a map") };
        let (key, stamped) = fields.pop().unwrap();
        assert_eq!(key, "determinism_digest");
        let body = serde_json::to_string(&Value::Map(fields)).unwrap();
        let expected = digest::digest_hex(digest::digest_str(&body));
        assert_eq!(stamped.as_str(), Some(expected.as_str()));
        assert_eq!(sample().determinism_digest(), expected);
    }

    #[test]
    fn content_changes_move_the_digest() {
        let a = sample();
        let mut b = sample();
        b.response_digest = "ee".into();
        assert_ne!(a.determinism_digest(), b.determinism_digest());
    }

    #[test]
    fn byte_percentiles_rank_correctly() {
        let p = BytePercentiles::from_samples(vec![5, 1, 3, 2, 4]);
        assert_eq!(p.p50, 3);
        assert_eq!(p.p90, 5);
        assert_eq!(p.max, 5);
        let empty = BytePercentiles::from_samples(vec![]);
        assert_eq!(empty.max, 0);
    }
}
