//! Length-prefixed binary frame format for the calibration wire.
//!
//! NDJSON (one JSON object per line, PRs 3–8) stays the default dialect;
//! this module adds a binary alternative that ships [`BitString`]s as the
//! packed `u64` words they already are and probabilities as little-endian
//! `f64` slabs, so a calibrate round-trip never re-parses decimal text.
//! Both dialects produce **bit-identical** numerics: the `f64` payload bits
//! travel verbatim, and every non-calibrate verb rides as an embedded JSON
//! document through the exact same dispatch path as the NDJSON protocol.
//!
//! ## Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"QFB1"  (format name + version in one tag)
//! 4       4     payload_len     u32 LE, bytes after the header
//! 8       8     request_id      u64 LE, echoed on the matching response
//! 16      1     code            request command / response kind
//! 17      …     payload         payload_len bytes
//! ```
//!
//! A connection negotiates its dialect with its **first byte**: `Q` (0x51,
//! the magic's first byte) selects binary framing for the whole connection;
//! anything else — `{`, whitespace, a bare newline keep-alive — selects
//! NDJSON. The dialects never mix on one connection.
//!
//! Because frames are length-delimited, a corrupt *payload* cannot desync
//! the stream: the server answers with an error frame and keeps the
//! connection. A bad magic mid-stream means framing itself is lost, so the
//! connection closes. Frames whose declared length exceeds the server's
//! request limit are answered with an error frame carrying the declared id
//! (the id sits in the header, before the oversized payload) and then the
//! connection closes, mirroring the NDJSON oversized-line policy.
//!
//! Request ids are chosen by the client and echoed verbatim; pipelined
//! clients keep many ids in flight and responses may complete out of order.

use crate::protocol::{
    Request, Response, CMD_ADMIT, CMD_CALIBRATE, CMD_METRICS, CMD_SHUTDOWN, CMD_STATUS, CMD_TRACE,
};
use qufem_core::engine::EngineStats;
use qufem_types::{BitString, ProbDist, SupportIndex};

/// Magic tag opening every binary frame: format name `QFB` + version `1`.
pub const MAGIC: [u8; 4] = *b"QFB1";
/// Bytes in the fixed frame header (magic + length + id + code).
pub const HEADER_LEN: usize = 17;

/// Request code: calibrate with a native binary payload (packed words +
/// `f64` slabs; see [`encode_request`] for the field layout).
pub const CODE_CALIBRATE: u8 = 1;
/// Request code: `status`, carried as an embedded JSON [`Request`].
pub const CODE_STATUS: u8 = 2;
/// Request code: `shutdown`, carried as an embedded JSON [`Request`].
pub const CODE_SHUTDOWN: u8 = 3;
/// Request code: `metrics`, carried as an embedded JSON [`Request`].
pub const CODE_METRICS: u8 = 4;
/// Request code: `trace`, carried as an embedded JSON [`Request`].
pub const CODE_TRACE: u8 = 5;
/// Request code: `admit`, carried as an embedded JSON [`Request`].
pub const CODE_ADMIT: u8 = 6;
/// Request code: any other command, carried as an embedded JSON
/// [`Request`]; the server dispatches on the JSON `cmd` string and answers
/// `unknown command` exactly as the NDJSON dialect would.
pub const CODE_OTHER: u8 = 7;

/// Response kind: the payload is a JSON-serialized [`Response`]. Used for
/// every non-calibrate answer and for error frames.
pub const RESP_JSON: u8 = 0;
/// Response kind: a successful calibrate answer in native binary form
/// (distribution as packed words + `f64` slabs, stats as an embedded JSON
/// blob, identity echo appended).
pub const RESP_CALIBRATED: u8 = 1;

/// Largest distribution width the decoder accepts. Generous against every
/// device preset (grid presets top out at 1000 qubits) while bounding the
/// allocation a corrupted frame can request.
const MAX_DIST_WIDTH: u32 = 1 << 20;

/// How a binary frame failed to decode — the severity tells the server
/// whether the connection can survive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Framing itself is lost (bad magic, or EOF inside a frame): the
    /// stream cannot be re-synchronized, so the connection must close.
    Desync(String),
    /// The frame declared a payload longer than the server's request
    /// limit. The id was already read from the header, so the server can
    /// answer an error frame before closing.
    Oversized {
        /// Request id from the frame header.
        id: u64,
        /// Declared payload length in bytes.
        len: usize,
    },
    /// The frame was well-delimited but its payload (or code) is
    /// malformed. Length-prefixed framing keeps the stream in sync, so
    /// the server answers an error frame and keeps the connection.
    Malformed {
        /// Request id from the frame header.
        id: u64,
        /// Human-readable description of the defect.
        message: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Desync(m) => write!(f, "{m}"),
            WireError::Oversized { len, .. } => write!(f, "oversized frame ({len} bytes)"),
            WireError::Malformed { message, .. } => write!(f, "{message}"),
        }
    }
}

/// A complete frame extracted from a connection's read buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Client-chosen request id, echoed on the response.
    pub id: u64,
    /// Command code (requests) or response kind (responses).
    pub code: u8,
    /// Frame payload, exactly `payload_len` bytes.
    pub payload: Vec<u8>,
}

/// Tries to extract one frame from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer does not yet hold a complete frame,
/// and `Ok(Some((frame, consumed)))` — with the number of bytes to drain —
/// when it does. Oversized frames (declared payload beyond `max_payload`)
/// are reported as soon as the header is readable, without waiting for the
/// payload bytes to arrive.
///
/// # Errors
///
/// [`WireError::Desync`] if the buffer does not start with the magic, or
/// [`WireError::Oversized`] if the declared length exceeds `max_payload`.
pub fn try_parse_frame(
    buf: &[u8],
    max_payload: usize,
) -> Result<Option<(Frame, usize)>, WireError> {
    if buf.is_empty() {
        return Ok(None);
    }
    let probe = buf.len().min(MAGIC.len());
    if buf[..probe] != MAGIC[..probe] {
        return Err(WireError::Desync("bad frame magic (stream desynchronized)".to_string()));
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let payload_len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    let id =
        u64::from_le_bytes([buf[8], buf[9], buf[10], buf[11], buf[12], buf[13], buf[14], buf[15]]);
    let code = buf[16];
    if payload_len > max_payload {
        return Err(WireError::Oversized { id, len: payload_len });
    }
    let total = HEADER_LEN + payload_len;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((Frame { id, code, payload: buf[HEADER_LEN..total].to_vec() }, total)))
}

/// Appends a complete frame (header + payload) to `out`.
pub fn encode_frame_into(out: &mut Vec<u8>, id: u64, code: u8, payload: &[u8]) {
    out.reserve(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&id.to_le_bytes());
    out.push(code);
    out.extend_from_slice(payload);
}

/// Encodes a complete frame (header + payload) into a fresh buffer.
pub fn encode_frame(id: u64, code: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    encode_frame_into(&mut out, id, code, payload);
    out
}

// ---------------------------------------------------------------------------
// payload primitives
// ---------------------------------------------------------------------------

/// Cursor over a frame payload with bounds-checked little-endian reads.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!("truncated payload reading {what}"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64(&mut self, what: &str) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn str(&mut self, what: &str) -> Result<String, String> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("invalid UTF-8 in {what}"))
    }

    fn finish(&self, what: &str) -> Result<(), String> {
        if self.remaining() != 0 {
            return Err(format!("{} trailing bytes after {what}", self.remaining()));
        }
        Ok(())
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Appends a distribution in native form: `u32` width, `u32` entry count,
/// then per entry (in [`ProbDist::sorted_pairs`] order) the bit string's
/// packed words (`words_for_width(width)` × `u64` LE) followed by the
/// probability's raw `f64` bits (LE). Exact: no decimal text anywhere.
/// Reads the packed words straight from the flat storage.
pub fn encode_dist_into(out: &mut Vec<u8>, dist: &ProbDist) {
    let index = dist.as_index();
    let mut order = Vec::new();
    index.sorted_ids(&mut order);
    out.reserve(8 + order.len() * (index.words_per_key() * 8 + 8));
    out.extend_from_slice(&(index.width() as u32).to_le_bytes());
    out.extend_from_slice(&(order.len() as u32).to_le_bytes());
    for id in order {
        for word in index.key_words(id) {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.extend_from_slice(&index.value(id).to_bits().to_le_bytes());
    }
}

/// Decodes a distribution written by [`encode_dist_into`], advancing the
/// reader past it. Validates width, word masks (via
/// [`BitString::check_words`]), finiteness, and that the declared entry
/// count fits the remaining bytes before allocating. Keys are interned as
/// raw words into the distribution's flat storage; duplicates accumulate.
fn decode_dist(r: &mut Reader<'_>) -> Result<ProbDist, String> {
    let width = r.u32("distribution width")?;
    if width > MAX_DIST_WIDTH {
        return Err(format!("distribution width {width} exceeds the {MAX_DIST_WIDTH} limit"));
    }
    let width = width as usize;
    let n = r.u32("distribution entry count")? as usize;
    let words = BitString::words_for_width(width);
    let entry_bytes = words * 8 + 8;
    if n.checked_mul(entry_bytes).is_none_or(|need| need > r.remaining()) {
        return Err(format!("distribution claims {n} entries but the payload is shorter"));
    }
    let mut index = SupportIndex::with_capacity(width, n);
    let mut key = vec![0u64; words];
    for _ in 0..n {
        for word in &mut key {
            *word = r.u64("bit-string word")?;
        }
        BitString::check_words(width, &key).map_err(|e| format!("bad bit string: {e}"))?;
        let value = r.f64("probability")?;
        if !value.is_finite() {
            return Err("non-finite probability in distribution".to_string());
        }
        // `intern` starts a new entry at 0.0, so this is `ProbDist::add`.
        let id = index.intern(&key);
        index.accumulate_id(id, value);
    }
    Ok(index.into_dist())
}

// ---------------------------------------------------------------------------
// requests
// ---------------------------------------------------------------------------

// Optional-field flags in the native calibrate request payload.
const REQ_HAS_MEASURED: u8 = 1 << 0;
const REQ_HAS_METHOD: u8 = 1 << 1;
const REQ_HAS_OPTIONS: u8 = 1 << 2;
const REQ_HAS_DEVICE: u8 = 1 << 3;
const REQ_HAS_VERSION: u8 = 1 << 4;

fn code_for_cmd(cmd: &str) -> u8 {
    match cmd {
        CMD_CALIBRATE => CODE_CALIBRATE,
        CMD_STATUS => CODE_STATUS,
        CMD_SHUTDOWN => CODE_SHUTDOWN,
        CMD_METRICS => CODE_METRICS,
        CMD_TRACE => CODE_TRACE,
        CMD_ADMIT => CODE_ADMIT,
        _ => CODE_OTHER,
    }
}

/// Encodes a request as one binary frame.
///
/// `calibrate` requests with a distribution use the native payload: a flag
/// byte, the distribution ([`encode_dist_into`]), then the optional fields
/// the flags announce — measured indices (`u32` count + `u32` each),
/// method string, method options (JSON blob), device string, and pinned
/// version (`u64`). Every other request — and a degenerate calibrate with
/// no distribution — rides as the JSON-serialized [`Request`] under the
/// matching command code, which guarantees dispatch identical to NDJSON.
pub fn encode_request(req: &Request, id: u64) -> Vec<u8> {
    if req.cmd == CMD_CALIBRATE {
        if let Some(dist) = &req.dist {
            let mut payload = Vec::new();
            let mut flags = 0u8;
            if req.measured.is_some() {
                flags |= REQ_HAS_MEASURED;
            }
            if req.method.is_some() {
                flags |= REQ_HAS_METHOD;
            }
            if req.options.is_some() {
                flags |= REQ_HAS_OPTIONS;
            }
            if req.device.is_some() {
                flags |= REQ_HAS_DEVICE;
            }
            if req.version.is_some() {
                flags |= REQ_HAS_VERSION;
            }
            payload.push(flags);
            encode_dist_into(&mut payload, dist);
            if let Some(measured) = &req.measured {
                payload.extend_from_slice(&(measured.len() as u32).to_le_bytes());
                for &q in measured {
                    payload.extend_from_slice(&(q as u32).to_le_bytes());
                }
            }
            if let Some(method) = &req.method {
                push_str(&mut payload, method);
            }
            if let Some(options) = &req.options {
                let blob = serde_json::to_string(options).expect("options serialize");
                push_str(&mut payload, &blob);
            }
            if let Some(device) = &req.device {
                push_str(&mut payload, device);
            }
            if let Some(version) = req.version {
                payload.extend_from_slice(&version.to_le_bytes());
            }
            return encode_frame(id, CODE_CALIBRATE, &payload);
        }
    }
    let json = serde_json::to_string(req).expect("request serializes");
    encode_frame(id, code_for_cmd(&req.cmd), json.as_bytes())
}

/// Decodes a request frame body produced by [`encode_request`].
///
/// # Errors
///
/// Returns a human-readable message when the code is unknown or the
/// payload is truncated, has trailing garbage, or fails validation; the
/// caller wraps it in an error frame (`malformed request: …`) exactly as
/// the NDJSON path wraps JSON parse errors.
pub fn decode_request(frame: &Frame) -> Result<Request, String> {
    match frame.code {
        CODE_CALIBRATE => {
            let mut r = Reader::new(&frame.payload);
            let flags = r.u8("calibrate flags")?;
            if flags
                & !(REQ_HAS_MEASURED
                    | REQ_HAS_METHOD
                    | REQ_HAS_OPTIONS
                    | REQ_HAS_DEVICE
                    | REQ_HAS_VERSION)
                != 0
            {
                return Err(format!("unknown calibrate flag bits {flags:#04x}"));
            }
            let dist = decode_dist(&mut r)?;
            let measured = if flags & REQ_HAS_MEASURED != 0 {
                let n = r.u32("measured count")? as usize;
                if n.checked_mul(4).is_none_or(|need| need > r.remaining()) {
                    return Err(format!(
                        "measured set claims {n} entries but the payload is shorter"
                    ));
                }
                let mut qs = Vec::with_capacity(n);
                for _ in 0..n {
                    qs.push(r.u32("measured qubit")? as usize);
                }
                Some(qs)
            } else {
                None
            };
            let method = if flags & REQ_HAS_METHOD != 0 { Some(r.str("method id")?) } else { None };
            let options = if flags & REQ_HAS_OPTIONS != 0 {
                let blob = r.str("method options")?;
                Some(serde_json::from_str(&blob).map_err(|e| format!("bad method options: {e}"))?)
            } else {
                None
            };
            let device = if flags & REQ_HAS_DEVICE != 0 { Some(r.str("device id")?) } else { None };
            let version =
                if flags & REQ_HAS_VERSION != 0 { Some(r.u64("pinned version")?) } else { None };
            r.finish("calibrate request")?;
            Ok(Request {
                cmd: CMD_CALIBRATE.to_string(),
                measured,
                dist: Some(dist),
                method,
                options,
                format: None,
                device,
                version,
                params: None,
            })
        }
        CODE_STATUS | CODE_SHUTDOWN | CODE_METRICS | CODE_TRACE | CODE_ADMIT | CODE_OTHER => {
            let text = std::str::from_utf8(&frame.payload)
                .map_err(|_| "embedded request is not UTF-8".to_string())?;
            serde_json::from_str(text).map_err(|e| e.to_string())
        }
        other => Err(format!("unknown frame code {other}")),
    }
}

// ---------------------------------------------------------------------------
// responses
// ---------------------------------------------------------------------------

// Optional-field flags in the native calibrate response payload.
const RESP_HAS_STATS: u8 = 1 << 0;
const RESP_HAS_DEVICE: u8 = 1 << 1;
const RESP_HAS_VERSION: u8 = 1 << 2;

/// Encodes a response as one binary frame tagged with the request's id.
///
/// Successful calibrate answers (`ok` with a distribution) use
/// [`RESP_CALIBRATED`]: a flag byte, the distribution in native form, then
/// optional [`EngineStats`] (JSON blob — integers, so JSON is exact),
/// device echo, and version echo. Everything else — status, metrics,
/// trace, acks, and every error — is the JSON-serialized [`Response`]
/// under [`RESP_JSON`].
pub fn encode_response(resp: &Response, id: u64) -> Vec<u8> {
    if resp.ok {
        if let Some(dist) = &resp.dist {
            let mut payload = Vec::new();
            let mut flags = 0u8;
            if resp.stats.is_some() {
                flags |= RESP_HAS_STATS;
            }
            if resp.device.is_some() {
                flags |= RESP_HAS_DEVICE;
            }
            if resp.version.is_some() {
                flags |= RESP_HAS_VERSION;
            }
            payload.push(flags);
            encode_dist_into(&mut payload, dist);
            if let Some(stats) = &resp.stats {
                let blob = serde_json::to_string(stats).expect("stats serialize");
                push_str(&mut payload, &blob);
            }
            if let Some(device) = &resp.device {
                push_str(&mut payload, device);
            }
            if let Some(version) = resp.version {
                payload.extend_from_slice(&version.to_le_bytes());
            }
            return encode_frame(id, RESP_CALIBRATED, &payload);
        }
    }
    let json = serde_json::to_string(resp).expect("response serializes");
    encode_frame(id, RESP_JSON, json.as_bytes())
}

/// Decodes a response frame body produced by [`encode_response`].
///
/// # Errors
///
/// Returns a human-readable message when the kind byte is unknown or the
/// payload is truncated or malformed.
pub fn decode_response(frame: &Frame) -> Result<Response, String> {
    match frame.code {
        RESP_JSON => {
            let text = std::str::from_utf8(&frame.payload)
                .map_err(|_| "embedded response is not UTF-8".to_string())?;
            serde_json::from_str(text).map_err(|e| e.to_string())
        }
        RESP_CALIBRATED => {
            let mut r = Reader::new(&frame.payload);
            let flags = r.u8("response flags")?;
            if flags & !(RESP_HAS_STATS | RESP_HAS_DEVICE | RESP_HAS_VERSION) != 0 {
                return Err(format!("unknown response flag bits {flags:#04x}"));
            }
            let dist = decode_dist(&mut r)?;
            let stats: Option<EngineStats> = if flags & RESP_HAS_STATS != 0 {
                let blob = r.str("engine stats")?;
                Some(serde_json::from_str(&blob).map_err(|e| format!("bad engine stats: {e}"))?)
            } else {
                None
            };
            let device =
                if flags & RESP_HAS_DEVICE != 0 { Some(r.str("device echo")?) } else { None };
            let version =
                if flags & RESP_HAS_VERSION != 0 { Some(r.u64("version echo")?) } else { None };
            r.finish("calibrate response")?;
            let resp = match stats {
                Some(stats) => Response::calibrated(dist, stats),
                None => Response::calibrated_without_stats(dist),
            };
            Ok(Response { device, version, ..resp })
        }
        other => Err(format!("unknown response kind {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dist() -> ProbDist {
        let mut dist = ProbDist::new(67);
        let mut a = BitString::zeros(67);
        a.set(0, true);
        a.set(66, true);
        dist.add(a, 0.1 + 0.2); // deliberately not exactly 0.3
        dist.add(BitString::zeros(67), 1.0 - (0.1 + 0.2));
        dist
    }

    #[test]
    fn frames_round_trip_through_the_parser() {
        let frame = encode_frame(42, CODE_STATUS, b"{\"cmd\":\"status\"}");
        let (parsed, consumed) = try_parse_frame(&frame, 1 << 20).unwrap().unwrap();
        assert_eq!(consumed, frame.len());
        assert_eq!(parsed.id, 42);
        assert_eq!(parsed.code, CODE_STATUS);
        assert_eq!(parsed.payload, b"{\"cmd\":\"status\"}");
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let frame = encode_frame(7, CODE_CALIBRATE, &[1, 2, 3, 4]);
        for cut in 0..frame.len() {
            assert_eq!(try_parse_frame(&frame[..cut], 1 << 20).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_desyncs_even_on_a_prefix() {
        assert!(matches!(try_parse_frame(b"{", 1 << 20), Err(WireError::Desync(_))));
        assert!(matches!(try_parse_frame(b"QFB2", 1 << 20), Err(WireError::Desync(_))));
        // A strict prefix of the magic is still "maybe a frame".
        assert_eq!(try_parse_frame(b"QF", 1 << 20).unwrap(), None);
    }

    #[test]
    fn oversized_frames_are_flagged_with_their_id() {
        let frame = encode_frame(99, CODE_CALIBRATE, &[0u8; 64]);
        match try_parse_frame(&frame[..HEADER_LEN], 32) {
            Err(WireError::Oversized { id, len }) => {
                assert_eq!(id, 99);
                assert_eq!(len, 64);
            }
            other => panic!("expected oversized, got {other:?}"),
        }
    }

    #[test]
    fn dist_codec_is_bit_exact() {
        let dist = sample_dist();
        let mut buf = Vec::new();
        encode_dist_into(&mut buf, &dist);
        let mut r = Reader::new(&buf);
        let back = decode_dist(&mut r).unwrap();
        r.finish("dist").unwrap();
        assert_eq!(back.width(), dist.width());
        assert_eq!(back.support_len(), dist.support_len());
        for (bits, value) in dist.sorted_pairs() {
            assert_eq!(back.prob(&bits).to_bits(), value.to_bits());
        }
    }

    #[test]
    fn dist_encoding_matches_the_sorted_pairs_layout() {
        // Reference layout built from owned keys in `sorted_pairs` order.
        let dist = sample_dist();
        let mut expected = Vec::new();
        expected.extend_from_slice(&67u32.to_le_bytes());
        expected.extend_from_slice(&(dist.support_len() as u32).to_le_bytes());
        for (bits, value) in dist.sorted_pairs() {
            for word in bits.as_words() {
                expected.extend_from_slice(&word.to_le_bytes());
            }
            expected.extend_from_slice(&value.to_bits().to_le_bytes());
        }
        let mut buf = Vec::new();
        encode_dist_into(&mut buf, &dist);
        assert_eq!(buf, expected);
    }

    #[test]
    fn dist_decoder_accumulates_duplicates_and_checks_word_masks() {
        let entry = |buf: &mut Vec<u8>, word: u64, value: f64| {
            buf.extend_from_slice(&word.to_le_bytes());
            buf.extend_from_slice(&value.to_bits().to_le_bytes());
        };
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&3u32.to_le_bytes());
        entry(&mut buf, 0b101, 0.25);
        entry(&mut buf, 0b001, -0.0);
        entry(&mut buf, 0b101, 0.5);
        let back = decode_dist(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back.support_len(), 2);
        assert_eq!(back.prob(&BitString::from_index(0b101, 3).unwrap()), 0.75);
        // A decoded `-0.0` is stored as `0.0 + -0.0`, exactly as `add` does.
        let zero = back.prob(&BitString::from_index(0b001, 3).unwrap());
        assert_eq!(zero.to_bits(), 0.0f64.to_bits());

        let mut bad = Vec::new();
        bad.extend_from_slice(&3u32.to_le_bytes());
        bad.extend_from_slice(&1u32.to_le_bytes());
        entry(&mut bad, 0b1000, 1.0);
        let err = decode_dist(&mut Reader::new(&bad)).unwrap_err();
        assert!(err.contains("bad bit string"), "{err}");
    }

    #[test]
    fn calibrate_requests_round_trip_natively() {
        let req = Request::calibrate(sample_dist(), Some(vec![0, 2, 66]))
            .with_method("m3")
            .with_device("ibmq-a")
            .with_version(3);
        let bytes = encode_request(&req, 11);
        let (frame, _) = try_parse_frame(&bytes, 1 << 20).unwrap().unwrap();
        assert_eq!(frame.code, CODE_CALIBRATE);
        let back = decode_request(&frame).unwrap();
        assert_eq!(back.cmd, CMD_CALIBRATE);
        assert_eq!(back.measured, Some(vec![0, 2, 66]));
        assert_eq!(back.method.as_deref(), Some("m3"));
        assert_eq!(back.device.as_deref(), Some("ibmq-a"));
        assert_eq!(back.version, Some(3));
        let (a, b) = (req.dist.unwrap(), back.dist.unwrap());
        for (bits, value) in a.sorted_pairs() {
            assert_eq!(b.prob(&bits).to_bits(), value.to_bits());
        }
    }

    #[test]
    fn other_verbs_ride_as_embedded_json() {
        for (req, code) in [
            (Request::status(), CODE_STATUS),
            (Request::shutdown(), CODE_SHUTDOWN),
            (Request::metrics(), CODE_METRICS),
            (Request::metrics_text(), CODE_METRICS),
            (Request::trace(), CODE_TRACE),
        ] {
            let bytes = encode_request(&req, 5);
            let (frame, _) = try_parse_frame(&bytes, 1 << 20).unwrap().unwrap();
            assert_eq!(frame.code, code, "cmd {}", req.cmd);
            let back = decode_request(&frame).unwrap();
            assert_eq!(back.cmd, req.cmd);
            assert_eq!(back.format, req.format);
        }
    }

    #[test]
    fn calibrated_responses_round_trip_bit_exact() {
        let stats =
            EngineStats { products: 123, kept_per_level: vec![4, 5, 6], ..Default::default() };
        let resp =
            Response::calibrated(sample_dist(), stats).with_identity("drift-7".to_string(), 2);
        let bytes = encode_response(&resp, 17);
        let (frame, _) = try_parse_frame(&bytes, 1 << 20).unwrap().unwrap();
        assert_eq!(frame.code, RESP_CALIBRATED);
        let back = decode_response(&frame).unwrap();
        assert!(back.ok);
        assert_eq!(back.device.as_deref(), Some("drift-7"));
        assert_eq!(back.version, Some(2));
        assert_eq!(back.stats.as_ref().unwrap().products, 123);
        assert_eq!(back.stats.as_ref().unwrap().kept_per_level, vec![4, 5, 6]);
        let (a, b) = (resp.dist.unwrap(), back.dist.unwrap());
        for (bits, value) in a.sorted_pairs() {
            assert_eq!(b.prob(&bits).to_bits(), value.to_bits());
        }
    }

    #[test]
    fn error_responses_ride_as_embedded_json() {
        let resp = Response::err("unknown method \"nope\"");
        let bytes = encode_response(&resp, 1);
        let (frame, _) = try_parse_frame(&bytes, 1 << 20).unwrap().unwrap();
        assert_eq!(frame.code, RESP_JSON);
        let back = decode_response(&frame).unwrap();
        assert!(!back.ok);
        assert_eq!(back.error.as_deref(), Some("unknown method \"nope\""));
    }

    #[test]
    fn corrupted_payloads_error_without_panicking() {
        let req = Request::calibrate(sample_dist(), Some(vec![0, 1]));
        let bytes = encode_request(&req, 3);
        let (frame, _) = try_parse_frame(&bytes, 1 << 20).unwrap().unwrap();
        // Flip every byte of the payload in turn; decode must never panic.
        for i in 0..frame.payload.len() {
            let mut mutated = frame.clone();
            mutated.payload[i] ^= 0xFF;
            let _ = decode_request(&mutated);
        }
        // Truncate at every length; decode must never panic.
        for cut in 0..frame.payload.len() {
            let mut short = frame.clone();
            short.payload.truncate(cut);
            assert!(decode_request(&short).is_err(), "cut at {cut}");
        }
        // Absurd entry count must not allocate unboundedly.
        let mut lying = frame.clone();
        lying.payload[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(&lying).is_err());
    }

    #[test]
    fn unknown_codes_are_rejected() {
        let frame = Frame { id: 1, code: 200, payload: Vec::new() };
        assert!(decode_request(&frame).is_err());
        assert!(decode_response(&frame).is_err());
    }
}
