//! Scenario model: the validated, typed form of a scenario TOML file.
//!
//! A scenario is the complete, self-contained description of one replayable
//! load test: which devices the server hosts, which tenants send traffic
//! (device × method × measured-subset distribution), how requests arrive
//! (closed-loop lockstep vs open-loop pipelined bursts), whether the server
//! starts cold or prewarmed, and which mid-run events fire (admitting a
//! [`qufem_device::Device::drifted`] recalibration, killing and reconnecting
//! clients). Together with the top-level `seed`, a scenario fully determines
//! the request trace — see [`crate::trace`].
//!
//! The on-disk schema is documented in DESIGN.md §4.16; checked-in examples
//! live under `scenarios/`.

use crate::toml::{self, TomlTable, TomlValue};
use crate::{Error, Result};
use qufem_core::digest;
use qufem_device::{presets, Device};

/// How clients issue requests within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Closed loop: each client sends one request per round and waits for
    /// the response before the round barrier.
    Closed,
    /// Open loop: each client pipelines `burst` request frames per round on
    /// its connection, pressuring the server queue.
    Open {
        /// Requests written back-to-back per client per round.
        burst: usize,
    },
}

impl Arrival {
    /// Requests each client issues per round.
    pub fn per_client(self) -> usize {
        match self {
            Arrival::Closed => 1,
            Arrival::Open { burst } => burst,
        }
    }

    /// The scenario-file spelling (`"closed"` / `"open"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Arrival::Closed => "closed",
            Arrival::Open { .. } => "open",
        }
    }
}

/// Wire dialect the scenario's clients speak (see `qufem_serve::wire`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Newline-delimited JSON (the historical protocol; the default).
    Json,
    /// Length-prefixed binary frames, pipelined by request id.
    Binary,
}

impl Protocol {
    /// The scenario-file spelling (`"json"` / `"binary"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Protocol::Json => "json",
            Protocol::Binary => "binary",
        }
    }
}

/// Which qubits of a tenant's device each request measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasuredMode {
    /// The full register.
    Full,
    /// Even-indexed qubits.
    Evens,
    /// Odd-indexed qubits.
    Odds,
    /// `k` distinct qubits drawn per request from the trace RNG (sparse
    /// observed-support traffic).
    Sparse {
        /// Qubits measured per request.
        k: usize,
    },
}

/// Server tuning knobs a scenario may override.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerSpec {
    /// Worker threads.
    pub workers: usize,
    /// Accept-queue depth. Defaults to `clients + 8` so lockstep connects
    /// never shed load (a rejection would be a racy, nondeterministic
    /// outcome).
    pub queue_depth: usize,
    /// Prepared-plan cache capacity per version entry.
    pub plan_cache: usize,
}

/// One hosted device: a preset characterized once at startup.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Catalog device id. The first device is the server's default.
    pub id: String,
    /// Preset name (`ibmq-7`, `quafu-18`, `custom-36`, `rigetti-79`,
    /// `quafu-136`, or `grid-N`).
    pub preset: String,
    /// Characterization shots per benchmarking circuit.
    pub cal_shots: u64,
    /// Characterization threshold (`alpha`).
    pub threshold: f64,
    /// Device noise / characterization seed.
    pub seed: u64,
}

/// One traffic class: a weighted stream of calibrate requests against one
/// device with one method and one measured-subset shape.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name (report key).
    pub name: String,
    /// Index into [`Scenario::devices`].
    pub device: usize,
    /// Method id (`qufem`, `ibu`, `m3`, `ctmp`, `qbeep`).
    pub method: String,
    /// Relative weight in the per-request tenant draw.
    pub weight: u64,
    /// Measured-subset shape.
    pub measured: MeasuredMode,
    /// Shots behind each request's noisy input distribution.
    pub shots: u64,
}

/// What a mid-run event does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// Characterize `device.drifted(step)` and admit it as the device's next
    /// catalog version (a live hot-swap under traffic).
    AdmitDrift {
        /// Index into [`Scenario::devices`].
        device: usize,
        /// Drift step handed to [`qufem_device::Device::drifted`].
        step: u64,
    },
    /// Drop and re-establish the listed clients' connections.
    Reconnect {
        /// Client indices to reconnect (validated in range).
        clients: Vec<usize>,
    },
}

/// One mid-run event, fired at the barrier *before* round `round`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventSpec {
    /// 1-based round this event precedes.
    pub round: usize,
    /// What happens.
    pub kind: EventKind,
}

/// A validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (report key).
    pub name: String,
    /// Master seed: the trace is a pure function of `(scenario, seed)`.
    pub seed: u64,
    /// Rounds of traffic.
    pub rounds: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// Arrival process.
    pub arrival: Arrival,
    /// Wire dialect the clients speak.
    pub protocol: Protocol,
    /// Start with the default method's full-register plan prewarmed
    /// (`false` = cold-cache start).
    pub prewarm: bool,
    /// Server tuning.
    pub server: ServerSpec,
    /// Hosted devices; index 0 is the server's startup/default device,
    /// the rest are admitted (as version 0) before traffic starts.
    pub devices: Vec<DeviceSpec>,
    /// Traffic classes.
    pub tenants: Vec<TenantSpec>,
    /// Mid-run events, sorted by round.
    pub events: Vec<EventSpec>,
    /// FNV-1a 64 digest of the scenario file text, hex.
    pub source_digest: String,
}

impl Scenario {
    /// Parses and validates a scenario from TOML text.
    ///
    /// # Errors
    ///
    /// A descriptive [`Error`] for syntax errors, missing/mistyped fields,
    /// keys or sections the parser does not read, or semantically invalid
    /// combinations (unknown devices, out-of-range rounds, sparse widths
    /// exceeding the register, …).
    pub fn parse(text: &str) -> Result<Scenario> {
        let doc = toml::parse(text).map_err(Error::new)?;
        if let Some((name, _)) = doc.tables.iter().find(|(n, _)| n != "server") {
            return Err(Error::new(format!("unknown table [{name}]")));
        }
        if let Some((name, _)) =
            doc.arrays.iter().find(|(n, _)| !["devices", "tenants", "events"].contains(&n.as_str()))
        {
            return Err(Error::new(format!("unknown table array [[{name}]]")));
        }
        let root = &doc.root;
        reject_unknown(
            root,
            "scenario",
            &["name", "seed", "rounds", "clients", "arrival", "burst", "protocol", "prewarm"],
        )?;
        let name = need_str(root, "scenario", "name")?;
        let seed = opt_u64(root, "scenario", "seed", 0)?;
        let rounds = opt_usize(root, "scenario", "rounds", 4)?;
        let clients = opt_usize(root, "scenario", "clients", 2)?;
        if rounds == 0 {
            return Err(Error::new("scenario: rounds must be >= 1"));
        }
        if clients == 0 {
            return Err(Error::new("scenario: clients must be >= 1"));
        }
        let arrival = match opt_str(root, "scenario", "arrival", "closed")?.as_str() {
            "closed" => Arrival::Closed,
            "open" => {
                let burst = opt_usize(root, "scenario", "burst", 4)?;
                if burst == 0 {
                    return Err(Error::new("scenario: burst must be >= 1 in open arrival"));
                }
                Arrival::Open { burst }
            }
            other => {
                return Err(Error::new(format!(
                    "scenario: arrival must be \"closed\" or \"open\", got {other:?}"
                )))
            }
        };
        let protocol = match opt_str(root, "scenario", "protocol", "json")?.as_str() {
            "json" => Protocol::Json,
            "binary" => Protocol::Binary,
            other => {
                return Err(Error::new(format!(
                    "scenario: protocol must be \"json\" or \"binary\", got {other:?}"
                )))
            }
        };
        let prewarm = opt_bool(root, "scenario", "prewarm", true)?;

        let empty = TomlTable::default();
        let server_table = doc.table("server").unwrap_or(&empty);
        let server = ServerSpec {
            workers: opt_usize(server_table, "server", "workers", 2)?,
            queue_depth: opt_usize(server_table, "server", "queue_depth", clients + 8)?,
            plan_cache: opt_usize(server_table, "server", "plan_cache", 8)?,
        };
        reject_unknown(server_table, "server", &["workers", "queue_depth", "plan_cache"])?;
        if server.workers + server.queue_depth < clients + 2 {
            return Err(Error::new(format!(
                "server.workers + server.queue_depth ({} + {}) must be >= clients + 2 ({}): \
                 the connection budget holds the clients, the control connection and \
                 reconnect slack, and connects beyond it shed load nondeterministically",
                server.workers,
                server.queue_depth,
                clients + 2
            )));
        }

        let mut devices = Vec::new();
        for (i, t) in doc.array("devices").iter().enumerate() {
            let ctx = format!("devices[{i}]");
            let preset = need_str(t, &ctx, "preset")?;
            presets::width_by_name(&preset)
                .ok_or_else(|| Error::new(format!("{ctx}: unknown preset {preset:?}")))?;
            let spec = DeviceSpec {
                id: opt_str(t, &ctx, "id", &preset)?,
                preset,
                cal_shots: opt_u64(t, &ctx, "cal_shots", 300)?,
                threshold: opt_f64(t, &ctx, "threshold", 5e-4)?,
                seed: opt_u64(t, &ctx, "seed", 1)?,
            };
            reject_unknown(t, &ctx, &["id", "preset", "cal_shots", "threshold", "seed"])?;
            if devices.iter().any(|d: &DeviceSpec| d.id == spec.id) {
                return Err(Error::new(format!("{ctx}: duplicate device id {:?}", spec.id)));
            }
            devices.push(spec);
        }
        if devices.is_empty() {
            return Err(Error::new("scenario needs at least one [[devices]] entry"));
        }

        let device_index = |ctx: &str, id: &str| -> Result<usize> {
            devices
                .iter()
                .position(|d| d.id == id)
                .ok_or_else(|| Error::new(format!("{ctx}: unknown device {id:?}")))
        };

        let mut tenants = Vec::new();
        for (i, t) in doc.array("tenants").iter().enumerate() {
            let ctx = format!("tenants[{i}]");
            let device_id = opt_str(t, &ctx, "device", &devices[0].id)?;
            let device = device_index(&ctx, &device_id)?;
            let width = presets::width_by_name(&devices[device].preset).expect("validated above");
            let measured = match opt_str(t, &ctx, "measured", "full")?.as_str() {
                "full" => MeasuredMode::Full,
                "evens" => MeasuredMode::Evens,
                "odds" => MeasuredMode::Odds,
                "sparse" => {
                    let k = opt_usize(t, &ctx, "sparse_k", 2)?;
                    if k == 0 || k > width {
                        return Err(Error::new(format!(
                            "{ctx}: sparse_k must be in 1..={width} for device \
                             {device_id:?}, got {k}"
                        )));
                    }
                    MeasuredMode::Sparse { k }
                }
                other => {
                    return Err(Error::new(format!(
                        "{ctx}: measured must be full|evens|odds|sparse, got {other:?}"
                    )))
                }
            };
            if width < 2 && matches!(measured, MeasuredMode::Odds) {
                return Err(Error::new(format!("{ctx}: device {device_id:?} has no odd qubits")));
            }
            let weight = opt_u64(t, &ctx, "weight", 1)?;
            if weight == 0 {
                return Err(Error::new(format!("{ctx}: weight must be >= 1")));
            }
            let spec = TenantSpec {
                name: need_str(t, &ctx, "name")?,
                device,
                method: opt_str(t, &ctx, "method", "qufem")?,
                weight,
                measured,
                shots: opt_u64(t, &ctx, "shots", 400)?,
            };
            reject_unknown(
                t,
                &ctx,
                &["name", "device", "method", "weight", "measured", "sparse_k", "shots"],
            )?;
            if tenants.iter().any(|x: &TenantSpec| x.name == spec.name) {
                return Err(Error::new(format!("{ctx}: duplicate tenant name {:?}", spec.name)));
            }
            tenants.push(spec);
        }
        if tenants.is_empty() {
            return Err(Error::new("scenario needs at least one [[tenants]] entry"));
        }

        let mut events = Vec::new();
        for (i, t) in doc.array("events").iter().enumerate() {
            let ctx = format!("events[{i}]");
            let round = opt_usize(t, &ctx, "round", 1)?;
            if round == 0 || round > rounds {
                return Err(Error::new(format!(
                    "{ctx}: round must be in 1..={rounds}, got {round}"
                )));
            }
            let kind = match need_str(t, &ctx, "kind")?.as_str() {
                "admit-drift" => {
                    let device_id = opt_str(t, &ctx, "device", &devices[0].id)?;
                    EventKind::AdmitDrift {
                        device: device_index(&ctx, &device_id)?,
                        step: opt_u64(t, &ctx, "drift_step", 1)?,
                    }
                }
                "reconnect" => {
                    let listed = opt_usize_array(t, &ctx, "clients")?;
                    let targets = if listed.is_empty() { (0..clients).collect() } else { listed };
                    for &c in &targets {
                        if c >= clients {
                            return Err(Error::new(format!(
                                "{ctx}: client index {c} out of range (clients = {clients})"
                            )));
                        }
                    }
                    EventKind::Reconnect { clients: targets }
                }
                other => {
                    return Err(Error::new(format!(
                        "{ctx}: kind must be admit-drift|reconnect, got {other:?}"
                    )))
                }
            };
            reject_unknown(t, &ctx, &["round", "kind", "device", "drift_step", "clients"])?;
            events.push(EventSpec { round, kind });
        }
        events.sort_by_key(|e| e.round);

        Ok(Scenario {
            name,
            seed,
            rounds,
            clients,
            arrival,
            protocol,
            prewarm,
            server,
            devices,
            tenants,
            events,
            source_digest: digest::digest_hex(digest::digest_str(text)),
        })
    }

    /// Reads and parses a scenario file.
    ///
    /// # Errors
    ///
    /// I/O failures and everything [`Scenario::parse`] rejects.
    pub fn load(path: &std::path::Path) -> Result<Scenario> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::new(format!("read {}: {e}", path.display())))?;
        Scenario::parse(&text)
    }

    /// Requests each client issues per round.
    pub fn per_client_per_round(&self) -> usize {
        self.arrival.per_client()
    }

    /// Total calibrate requests the trace will contain.
    pub fn total_requests(&self) -> usize {
        self.rounds * self.clients * self.per_client_per_round()
    }

    /// The measured qubit count of device `idx`'s preset.
    pub fn device_width(&self, idx: usize) -> usize {
        presets::width_by_name(&self.devices[idx].preset).expect("presets validated at parse")
    }
}

/// Builds the preset device behind a [`DeviceSpec`].
///
/// # Errors
///
/// Unknown preset names (already rejected at parse, so only reachable with a
/// hand-built spec).
pub fn build_device(spec: &DeviceSpec) -> Result<Device> {
    presets::by_name(&spec.preset, spec.seed)
        .ok_or_else(|| Error::new(format!("unknown preset {:?}", spec.preset)))
}

// ---------------------------------------------------------------------------
// Typed field accessors
// ---------------------------------------------------------------------------

/// Rejects the first key of `t` outside `known`: a key the parser never
/// reads (a typo, a stale knob) must not run silently with defaults.
fn reject_unknown(t: &TomlTable, ctx: &str, known: &[&str]) -> Result<()> {
    match t.entries.iter().find(|(key, _)| !known.contains(&key.as_str())) {
        Some((key, _)) => Err(Error::new(format!("{ctx}: unknown key {key:?}"))),
        None => Ok(()),
    }
}

fn type_err(ctx: &str, key: &str, want: &str, got: &TomlValue) -> Error {
    Error::new(format!("{ctx}.{key}: expected {want}, got {}", got.kind()))
}

fn need_str(t: &TomlTable, ctx: &str, key: &str) -> Result<String> {
    match t.get(key) {
        Some(TomlValue::Str(s)) => Ok(s.clone()),
        Some(other) => Err(type_err(ctx, key, "string", other)),
        None => Err(Error::new(format!("{ctx}: missing required key {key:?}"))),
    }
}

fn opt_str(t: &TomlTable, ctx: &str, key: &str, default: &str) -> Result<String> {
    match t.get(key) {
        Some(TomlValue::Str(s)) => Ok(s.clone()),
        Some(other) => Err(type_err(ctx, key, "string", other)),
        None => Ok(default.to_string()),
    }
}

fn opt_u64(t: &TomlTable, ctx: &str, key: &str, default: u64) -> Result<u64> {
    match t.get(key) {
        Some(TomlValue::Int(n)) if *n >= 0 => Ok(*n as u64),
        Some(other) => Err(type_err(ctx, key, "non-negative integer", other)),
        None => Ok(default),
    }
}

fn opt_usize(t: &TomlTable, ctx: &str, key: &str, default: usize) -> Result<usize> {
    opt_u64(t, ctx, key, default as u64).map(|n| n as usize)
}

fn opt_f64(t: &TomlTable, ctx: &str, key: &str, default: f64) -> Result<f64> {
    match t.get(key) {
        Some(TomlValue::Float(f)) => Ok(*f),
        Some(TomlValue::Int(n)) => Ok(*n as f64),
        Some(other) => Err(type_err(ctx, key, "number", other)),
        None => Ok(default),
    }
}

fn opt_bool(t: &TomlTable, ctx: &str, key: &str, default: bool) -> Result<bool> {
    match t.get(key) {
        Some(TomlValue::Bool(b)) => Ok(*b),
        Some(other) => Err(type_err(ctx, key, "boolean", other)),
        None => Ok(default),
    }
}

fn opt_usize_array(t: &TomlTable, ctx: &str, key: &str) -> Result<Vec<usize>> {
    match t.get(key) {
        None => Ok(Vec::new()),
        Some(TomlValue::Array(items)) => items
            .iter()
            .map(|v| match v {
                TomlValue::Int(n) if *n >= 0 => Ok(*n as usize),
                other => Err(type_err(ctx, key, "array of non-negative integers", other)),
            })
            .collect(),
        Some(other) => Err(type_err(ctx, key, "array", other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
        name = "mini"
        seed = 3
        rounds = 2
        clients = 2

        [[devices]]
        preset = "grid-3"

        [[tenants]]
        name = "t0"
    "#;

    #[test]
    fn minimal_scenario_fills_defaults() {
        let s = Scenario::parse(MINIMAL).unwrap();
        assert_eq!(s.name, "mini");
        assert_eq!(s.seed, 3);
        assert_eq!(s.arrival, Arrival::Closed);
        assert_eq!(s.protocol, Protocol::Json, "NDJSON is the default dialect");
        assert!(s.prewarm);
        assert_eq!(s.server.queue_depth, 10, "clients + 8");
        assert_eq!(s.devices[0].id, "grid-3", "id defaults to the preset name");
        assert_eq!(s.tenants[0].method, "qufem");
        assert_eq!(s.tenants[0].measured, MeasuredMode::Full);
        assert_eq!(s.total_requests(), 4);
        assert_eq!(s.source_digest.len(), 16);
    }

    #[test]
    fn full_scenario_parses() {
        let s = Scenario::parse(
            r#"
            name = "full"
            seed = 9
            rounds = 5
            clients = 3
            arrival = "open"
            burst = 2
            protocol = "binary"
            prewarm = false

            [server]
            workers = 4
            plan_cache = 4

            [[devices]]
            id = "a"
            preset = "grid-3"
            seed = 1

            [[devices]]
            id = "b"
            preset = "grid-4"
            seed = 2

            [[tenants]]
            name = "sparse-b"
            device = "b"
            method = "ibu"
            weight = 3
            measured = "sparse"
            sparse_k = 2
            shots = 200

            [[events]]
            round = 3
            kind = "admit-drift"
            device = "a"
            drift_step = 2

            [[events]]
            round = 2
            kind = "reconnect"
            clients = [1]
            "#,
        )
        .unwrap();
        assert_eq!(s.arrival, Arrival::Open { burst: 2 });
        assert_eq!(s.protocol, Protocol::Binary);
        assert_eq!(s.per_client_per_round(), 2);
        assert_eq!(s.total_requests(), 30);
        assert_eq!(s.tenants[0].device, 1);
        assert_eq!(s.tenants[0].measured, MeasuredMode::Sparse { k: 2 });
        // Events sort by round.
        assert_eq!(s.events[0].round, 2);
        assert_eq!(s.events[0].kind, EventKind::Reconnect { clients: vec![1] });
        assert_eq!(s.events[1].kind, EventKind::AdmitDrift { device: 0, step: 2 });
        assert_eq!(s.device_width(1), 4);
    }

    #[test]
    fn validation_rejects_bad_combinations() {
        // `root` lines go before the section headers (root keys cannot
        // follow a `[[...]]` header); `tail` goes after the minimal body.
        let case = |root: &str, tail: &str| {
            format!(
                "name = \"bad\"\n{root}\n\
                 [[devices]]\npreset = \"grid-3\"\n\
                 [[tenants]]\nname = \"t0\"\n{tail}\n"
            )
        };
        for (root, tail, needle) in [
            ("rounds = 0", "", "rounds must be"),
            ("clients = 0", "", "clients must be"),
            ("arrival = \"poisson\"", "", "closed"),
            ("arrival = \"open\"\nburst = 0", "", "burst must be"),
            ("protocol = \"grpc\"", "", "json"),
            ("", "[[events]]\nround = 9\nkind = \"reconnect\"", "round must be in"),
            ("", "[[events]]\nround = 1\nkind = \"reconnect\"\nclients = [5]", "out of range"),
            (
                "",
                "[[events]]\nround = 1\nkind = \"admit-drift\"\ndevice = \"nope\"",
                "unknown device",
            ),
            ("", "[[tenants]]\nname = \"x\"\ndevice = \"nope\"", "unknown device"),
            ("", "[[tenants]]\nname = \"x\"\nmeasured = \"sparse\"\nsparse_k = 9", "sparse_k"),
            ("", "[[tenants]]\nname = \"x\"\nweight = 0", "weight must be"),
            ("", "[[tenants]]\nname = \"t0\"", "duplicate tenant"),
            ("", "[[devices]]\npreset = \"grid-3\"", "duplicate device id"),
            ("", "[[devices]]\npreset = \"warp-9\"", "unknown preset"),
            ("", "[server]\nqueue_depth = 1", "queue_depth"),
            ("", "[server]\nworkers = 1\nqueue_depth = 2", "server.workers + server.queue_depth"),
            // Keys and sections the parser does not read are errors that
            // name the table and the key.
            ("seeed = 3", "", "scenario: unknown key \"seeed\""),
            ("", "[server]\nplan_cahce = 2", "server: unknown key \"plan_cahce\""),
            ("", "[server]\nmemo_cap = 2", "server: unknown key \"memo_cap\""),
            (
                "",
                "[[devices]]\nid = \"b\"\npreset = \"grid-3\"\nshot = 9",
                "devices[1]: unknown key \"shot\"",
            ),
            ("", "[[tenants]]\nname = \"x\"\nwieght = 2", "tenants[1]: unknown key \"wieght\""),
            (
                "",
                "[[events]]\nround = 1\nkind = \"reconnect\"\nclient = [0]",
                "events[0]: unknown key \"client\"",
            ),
            ("", "[sever]\nworkers = 2", "unknown table [sever]"),
            ("", "[budget]\nlimit_ms = 5.0", "unknown table [budget]"),
            ("", "[[tenant]]\nname = \"x\"", "unknown table array [[tenant]]"),
        ] {
            let text = case(root, tail);
            let err = Scenario::parse(&text).unwrap_err();
            assert!(err.to_string().contains(needle), "{root:?}/{tail:?} -> {err}");
        }
    }
}
