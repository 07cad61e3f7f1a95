//! Sharded campaign fleet runner: checkpointed worker processes, byte-stable
//! merge, kill/resume.
//!
//! A [`Fleet`] partitions a [`Campaign`]'s scenario index space into
//! contiguous [`ShardRange`]s.  Each shard runs as an independent worker
//! process ([`Fleet::run_with`] spawns them; [`Fleet::run_shard`] is the
//! worker entry point) and commits two files to the campaign directory:
//!
//! * `shard-NNN.partial.json` — the shard's [`PartialReport`]: every
//!   [`ScenarioOutcome`] of its index range, serialized losslessly (floats as
//!   IEEE-754 bit patterns, so rendering the merged report reproduces the
//!   single-process bytes exactly);
//! * `shard-NNN.manifest.json` — the commit record: the campaign's config
//!   hash, the shard's range, and an FNV-1a digest of the partial file's
//!   bytes.
//!
//! Both are written to a temporary name and then renamed, and the manifest is
//! written *last*, so the manifest's validity is the shard's commit point: a
//! worker killed at any instant leaves either a complete, verifiable pair or
//! no manifest at all.  [`Fleet::scan`] classifies every shard as complete,
//! missing, or corrupt (unparseable, digest mismatch, config mismatch), and
//! [`Fleet::run_with`] re-runs exactly the shards that are not complete — a
//! SIGKILL'd campaign resumes from its last committed shard.
//!
//! The merge ([`Fleet::merge`]) folds the partials through
//! [`ConformanceReport::merge`], which re-sorts outcomes by scenario index:
//! because scenario sampling is a pure function of `(dimension, seed,
//! index)` and indices are unique, the merged report is **byte-identical**
//! to the single-process [`Campaign::run`] report for any shard count and
//! any completion order.
//!
//! The vendored serde shim has no serializer, so this module carries its own
//! small JSON codec.  It is a *closed* format — the parser accepts exactly
//! what the renderer emits (unsigned decimal integers, escaped strings,
//! objects, arrays) — not a general JSON implementation.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::time::{Duration, Instant};

use wnoc_core::{Coord, Error, FlowId, NodeId, Result};
use wnoc_sim::LatencyStats;

use crate::campaign::{Campaign, CampaignDimension, ConformanceReport};
use wnoc_core::vc::{VcAssignment, VcConfig};

use crate::scenario::{
    BufferChoice, DesignChoice, FaultChoice, Scenario, ScenarioFamily, ScenarioOutcome,
    TightnessSummary, TrafficChoice, VcChoice, Violation,
};

/// Format tag embedded in every checkpoint artifact; bump on any codec
/// change so stale checkpoints are rejected instead of misparsed.  v3 added
/// the scenario `traffic` field (the bursty arrival-curve dimension).
///
/// The version is **dimension-dependent** (see [`format_version`]): v4 adds
/// the optional scenario `faults` field, which only the fault-sweep
/// dimension emits, so every legacy dimension keeps writing — and hashing —
/// the v3 tag and its existing checkpoints and goldens stay byte-identical.
pub const FORMAT_VERSION: &str = "wnoc-fleet/v3";

/// Format tag of dimensions whose scenarios carry fault plans.
pub const FORMAT_VERSION_V4: &str = "wnoc-fleet/v4";

/// The checkpoint format version a campaign dimension writes: v4 for the
/// fault sweep (its scenarios serialize a `faults` field), v3 for every
/// legacy dimension.  Shard *manifests* stay at v3 unconditionally — they
/// carry no scenario payload, only hashes and ranges.
pub fn format_version(dimension: CampaignDimension) -> &'static str {
    match dimension {
        CampaignDimension::FaultSweep => FORMAT_VERSION_V4,
        _ => FORMAT_VERSION,
    }
}

/// Test-only fault-injection hook: when this environment variable is set to
/// a millisecond count, [`Fleet::run_shard`] stalls for that long after
/// recording its attempt and computing its outcomes but *before* committing
/// the checkpoint — a deterministic window for kill-mid-shard tests.
pub const STALL_ENV: &str = "WNOC_FLEET_TEST_STALL_MS";

/// Like [`STALL_ENV`], but the stall applies only to a shard's *first*
/// attempt: the watchdog's kill-and-retry then runs against a worker that
/// hangs once and recovers, the success path a timeout test needs.
pub const STALL_ONCE_ENV: &str = "WNOC_FLEET_TEST_STALL_ONCE_MS";

// ---------------------------------------------------------------------------
// Shard partitioning
// ---------------------------------------------------------------------------

/// One contiguous slice of a campaign's scenario index space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// Shard number (position in the plan).
    pub index: usize,
    /// First scenario index (inclusive).
    pub start: usize,
    /// One past the last scenario index (exclusive).
    pub end: usize,
}

impl ShardRange {
    /// Scenarios in the shard.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` for a shard with no scenarios (never produced by
    /// [`partition`]).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl fmt::Display for ShardRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {:03} [{}..{})", self.index, self.start, self.end)
    }
}

/// Partitions `scenarios` indices into at most `shards` contiguous,
/// maximally balanced ranges.
///
/// * An empty campaign partitions into **no** shards (there is nothing to
///   run; the merged report is the empty report).
/// * `shards` is clamped to `1..=scenarios`, so no shard is ever empty —
///   asking for more shards than scenarios yields one single-scenario shard
///   per scenario.
/// * The first `scenarios % shards` shards carry one extra scenario.
pub fn partition(scenarios: usize, shards: usize) -> Vec<ShardRange> {
    if scenarios == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, scenarios);
    let base = scenarios / shards;
    let extra = scenarios % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for index in 0..shards {
        let len = base + usize::from(index < extra);
        ranges.push(ShardRange {
            index,
            start,
            end: start + len,
        });
        start += len;
    }
    debug_assert_eq!(start, scenarios);
    ranges
}

// ---------------------------------------------------------------------------
// Digest
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a over a byte string — the checkpoint digest.  Deterministic
/// across platforms and processes (unlike the std hasher, which is
/// per-process seeded).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The config hash stamped into every checkpoint artifact of a campaign:
/// FNV-1a over a canonical description of `(format version, dimension,
/// seed, scenario count)`.  The shard *plan* is deliberately excluded —
/// manifests record their own ranges, so resuming with a different shard
/// count simply re-runs the shards whose ranges changed — but any change to
/// the campaign itself (seed, size, dimension, codec version) makes every
/// existing checkpoint unmergeable.
pub fn config_hash(campaign: &Campaign) -> u64 {
    fnv1a(
        format!(
            "{} dimension={} seed={} scenarios={}",
            format_version(campaign.dimension),
            campaign.dimension.tag(),
            campaign.seed,
            campaign.scenarios
        )
        .as_bytes(),
    )
}

// ---------------------------------------------------------------------------
// Minimal JSON value + parser (the checkpoint codec's reader half)
// ---------------------------------------------------------------------------

/// A parsed JSON value.  Numbers are unsigned 64-bit integers only — the
/// checkpoint format encodes floats as IEEE-754 bit patterns precisely so
/// that no decimal float ever needs to round-trip.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    Str(String),
    UInt(u64),
    Bool(bool),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields
                .iter()
                .find_map(|(name, value)| (name == key).then_some(value)),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(value) => Some(*value),
            _ => None,
        }
    }

    fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(value) => Some(value),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(value) => Some(*value),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Escapes a string for embedding in the checkpoint JSON: backslash, quote,
/// and control characters (the parser understands exactly these escapes).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Deepest array/object nesting the parser accepts.  The deepest legal
/// checkpoint nests 7 levels (partial → outcomes → outcome → scenario →
/// family → cores → coordinate); the cap only keeps hostile input from
/// recursing the parser off the stack.
const MAX_NESTING: usize = 16;

struct JsonParser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn error(&self, message: &str) -> String {
        format!("{message} at byte {}", self.pos)
    }

    fn skip_whitespace(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        let skipped = rest
            .iter()
            .take_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .count();
        self.pos += skipped;
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> std::result::Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self) -> std::result::Result<Json, String> {
        self.skip_whitespace();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_NESTING {
                    return Err(self.error("nesting too deep"));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => self.parse_string().map(Json::Str),
            Some(b'0'..=b'9') => self.parse_uint(),
            Some(b't') | Some(b'f') => self.parse_bool(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn parse_object(&mut self) -> std::result::Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self) -> std::result::Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn parse_string(&mut self) -> std::result::Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let mut chars = rest.char_indices();
            let Some((_, ch)) = chars.next() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += ch.len_utf8();
            match ch {
                '"' => return Ok(out),
                '\\' => {
                    let Some(escape) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            let ch = char::from_u32(code)
                                .ok_or_else(|| self.error("non-scalar \\u escape"))?;
                            self.pos += 4;
                            out.push(ch);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn parse_uint(&mut self) -> std::result::Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<u64>()
            .map(Json::UInt)
            .map_err(|_| self.error("integer out of range"))
    }

    fn parse_bool(&mut self) -> std::result::Result<Json, String> {
        for (literal, value) in [("true", true), ("false", false)] {
            if self.text[self.pos..].starts_with(literal) {
                self.pos += literal.len();
                return Ok(Json::Bool(value));
            }
        }
        Err(self.error("expected 'true' or 'false'"))
    }
}

/// Parses one checkpoint JSON document (and requires it to span the whole
/// input).
fn parse_json(text: &str) -> std::result::Result<Json, String> {
    let mut parser = JsonParser::new(text);
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != text.len() {
        return Err(parser.error("trailing bytes after document"));
    }
    Ok(value)
}

/// Shorthand: a [`Error::CorruptCheckpoint`] for `path`.
fn corrupt(path: &Path, reason: impl Into<String>) -> Error {
    Error::CorruptCheckpoint {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

/// Fetches a required field, typed, or reports the checkpoint corrupt.
fn field<'a>(value: &'a Json, key: &str, path: &Path) -> Result<&'a Json> {
    value
        .get(key)
        .ok_or_else(|| corrupt(path, format!("missing field \"{key}\"")))
}

fn field_u64(value: &Json, key: &str, path: &Path) -> Result<u64> {
    field(value, key, path)?
        .as_u64()
        .ok_or_else(|| corrupt(path, format!("field \"{key}\" is not an integer")))
}

fn field_usize(value: &Json, key: &str, path: &Path) -> Result<usize> {
    field(value, key, path)?
        .as_usize()
        .ok_or_else(|| corrupt(path, format!("field \"{key}\" is not an index")))
}

fn field_str<'a>(value: &'a Json, key: &str, path: &Path) -> Result<&'a str> {
    field(value, key, path)?
        .as_str()
        .ok_or_else(|| corrupt(path, format!("field \"{key}\" is not a string")))
}

fn field_bool(value: &Json, key: &str, path: &Path) -> Result<bool> {
    field(value, key, path)?
        .as_bool()
        .ok_or_else(|| corrupt(path, format!("field \"{key}\" is not a bool")))
}

fn field_array<'a>(value: &'a Json, key: &str, path: &Path) -> Result<&'a [Json]> {
    field(value, key, path)?
        .as_array()
        .ok_or_else(|| corrupt(path, format!("field \"{key}\" is not an array")))
}

// ---------------------------------------------------------------------------
// Scenario / outcome codec
// ---------------------------------------------------------------------------

fn render_coord(coord: Coord) -> String {
    format!("[{},{}]", coord.x, coord.y)
}

fn parse_coord(value: &Json, path: &Path) -> Result<Coord> {
    let items = value
        .as_array()
        .filter(|items| items.len() == 2)
        .ok_or_else(|| corrupt(path, "coordinate is not a two-element array"))?;
    let component = |item: &Json| {
        item.as_u64()
            .and_then(|v| u16::try_from(v).ok())
            .ok_or_else(|| corrupt(path, "coordinate component out of range"))
    };
    Ok(Coord::new(component(&items[0])?, component(&items[1])?))
}

fn render_coords(coords: &[Coord]) -> String {
    let items: Vec<String> = coords.iter().map(|&c| render_coord(c)).collect();
    format!("[{}]", items.join(","))
}

fn parse_coords(items: &[Json], path: &Path) -> Result<Vec<Coord>> {
    items.iter().map(|item| parse_coord(item, path)).collect()
}

fn render_family(family: &ScenarioFamily) -> String {
    match family {
        ScenarioFamily::AllToOne { hotspot } => {
            format!(
                "{{\"kind\":\"all-to-one\",\"hotspot\":{}}}",
                render_coord(*hotspot)
            )
        }
        ScenarioFamily::OneToAll { source } => {
            format!(
                "{{\"kind\":\"one-to-all\",\"source\":{}}}",
                render_coord(*source)
            )
        }
        ScenarioFamily::Endpoints { memories } => {
            format!(
                "{{\"kind\":\"endpoints\",\"memories\":{}}}",
                render_coords(memories)
            )
        }
        ScenarioFamily::RandomPairs { pairs } => {
            let items: Vec<String> = pairs
                .iter()
                .map(|(src, dst)| format!("[{},{}]", src.0, dst.0))
                .collect();
            format!(
                "{{\"kind\":\"random-pairs\",\"pairs\":[{}]}}",
                items.join(",")
            )
        }
        ScenarioFamily::Placement {
            name,
            memory,
            cores,
        } => {
            format!(
                "{{\"kind\":\"placement\",\"name\":\"{}\",\"memory\":{},\"cores\":{}}}",
                escape(name),
                render_coord(*memory),
                render_coords(cores)
            )
        }
    }
}

fn parse_family(value: &Json, path: &Path) -> Result<ScenarioFamily> {
    match field_str(value, "kind", path)? {
        "all-to-one" => Ok(ScenarioFamily::AllToOne {
            hotspot: parse_coord(field(value, "hotspot", path)?, path)?,
        }),
        "one-to-all" => Ok(ScenarioFamily::OneToAll {
            source: parse_coord(field(value, "source", path)?, path)?,
        }),
        "endpoints" => Ok(ScenarioFamily::Endpoints {
            memories: parse_coords(field_array(value, "memories", path)?, path)?,
        }),
        "random-pairs" => {
            let pairs = field_array(value, "pairs", path)?
                .iter()
                .map(|item| {
                    let ends = item
                        .as_array()
                        .filter(|ends| ends.len() == 2)
                        .ok_or_else(|| corrupt(path, "flow pair is not a two-element array"))?;
                    let node = |end: &Json| {
                        end.as_usize()
                            .map(NodeId)
                            .ok_or_else(|| corrupt(path, "flow endpoint is not a node id"))
                    };
                    Ok((node(&ends[0])?, node(&ends[1])?))
                })
                .collect::<Result<Vec<_>>>()?;
            Ok(ScenarioFamily::RandomPairs { pairs })
        }
        "placement" => Ok(ScenarioFamily::Placement {
            name: field_str(value, "name", path)?.to_string(),
            memory: parse_coord(field(value, "memory", path)?, path)?,
            cores: parse_coords(field_array(value, "cores", path)?, path)?,
        }),
        unknown => Err(corrupt(path, format!("unknown family kind \"{unknown}\""))),
    }
}

fn render_design(design: &DesignChoice) -> String {
    match design {
        DesignChoice::Regular { max_packet_flits } => {
            format!("{{\"kind\":\"regular\",\"max_packet_flits\":{max_packet_flits}}}")
        }
        DesignChoice::WawWap => "{\"kind\":\"waw-wap\"}".to_string(),
    }
}

fn parse_design(value: &Json, path: &Path) -> Result<DesignChoice> {
    match field_str(value, "kind", path)? {
        "regular" => {
            let flits = field_u64(value, "max_packet_flits", path)?;
            let max_packet_flits =
                u32::try_from(flits).map_err(|_| corrupt(path, "max_packet_flits out of range"))?;
            Ok(DesignChoice::Regular { max_packet_flits })
        }
        "waw-wap" => Ok(DesignChoice::WawWap),
        unknown => Err(corrupt(path, format!("unknown design kind \"{unknown}\""))),
    }
}

fn render_buffers(buffers: &BufferChoice) -> String {
    match buffers {
        BufferChoice::Default => "{\"kind\":\"default\"}".to_string(),
        BufferChoice::Uniform { depth } => {
            format!("{{\"kind\":\"uniform\",\"depth\":{depth}}}")
        }
        BufferChoice::Heterogeneous { seed } => {
            format!("{{\"kind\":\"heterogeneous\",\"seed\":{seed}}}")
        }
    }
}

fn parse_buffers(value: &Json, path: &Path) -> Result<BufferChoice> {
    match field_str(value, "kind", path)? {
        "default" => Ok(BufferChoice::Default),
        "uniform" => {
            let depth = field_u64(value, "depth", path)?;
            let depth =
                u32::try_from(depth).map_err(|_| corrupt(path, "buffer depth out of range"))?;
            Ok(BufferChoice::Uniform { depth })
        }
        "heterogeneous" => Ok(BufferChoice::Heterogeneous {
            seed: field_u64(value, "seed", path)?,
        }),
        unknown => Err(corrupt(path, format!("unknown buffer kind \"{unknown}\""))),
    }
}

fn render_vcs(vcs: &VcChoice) -> String {
    match vcs {
        VcChoice::Default => "{\"kind\":\"default\"}".to_string(),
        VcChoice::Count { count, assignment } => {
            format!(
                "{{\"kind\":\"count\",\"count\":{count},\"assignment\":\"{}\"}}",
                assignment.tag()
            )
        }
    }
}

fn parse_vcs(value: &Json, path: &Path) -> Result<VcChoice> {
    match field_str(value, "kind", path)? {
        "default" => Ok(VcChoice::Default),
        "count" => {
            let count = field_u64(value, "count", path)?;
            let count = u32::try_from(count).map_err(|_| corrupt(path, "VC count out of range"))?;
            let assignment = match field_str(value, "assignment", path)? {
                "idx" => VcAssignment::FlowIndex,
                "dist" => VcAssignment::Distance,
                unknown => {
                    return Err(corrupt(
                        path,
                        format!("unknown VC assignment \"{unknown}\""),
                    ))
                }
            };
            // Only counts the router supports materialise (`VcChoice::config`).
            VcConfig::new(count, assignment).map_err(|error| corrupt(path, error.to_string()))?;
            Ok(VcChoice::Count { count, assignment })
        }
        unknown => Err(corrupt(path, format!("unknown VC kind \"{unknown}\""))),
    }
}

fn render_traffic(traffic: &TrafficChoice) -> String {
    match traffic {
        TrafficChoice::ClosedLoop => "{\"kind\":\"closed-loop\"}".to_string(),
        TrafficChoice::Bursty { burst, gap, cv } => {
            format!("{{\"kind\":\"bursty\",\"burst\":{burst},\"gap\":{gap},\"cv\":{cv}}}")
        }
    }
}

fn parse_traffic(value: &Json, path: &Path) -> Result<TrafficChoice> {
    match field_str(value, "kind", path)? {
        "closed-loop" => Ok(TrafficChoice::ClosedLoop),
        "bursty" => {
            let component = |key: &str| -> Result<u32> {
                let raw = field_u64(value, key, path)?;
                u32::try_from(raw).map_err(|_| corrupt(path, format!("{key} out of range")))
            };
            Ok(TrafficChoice::Bursty {
                burst: component("burst")?,
                gap: component("gap")?,
                cv: component("cv")?,
            })
        }
        unknown => Err(corrupt(path, format!("unknown traffic kind \"{unknown}\""))),
    }
}

fn render_faults(faults: &FaultChoice) -> String {
    match faults {
        FaultChoice::None => "{\"kind\":\"none\"}".to_string(),
        FaultChoice::Links {
            count,
            seed,
            activation,
        } => format!(
            "{{\"kind\":\"links\",\"count\":{count},\"seed\":{seed},\"activation\":{activation}}}"
        ),
        FaultChoice::Router { seed, activation } => {
            format!("{{\"kind\":\"router\",\"seed\":{seed},\"activation\":{activation}}}")
        }
    }
}

fn parse_faults(value: &Json, path: &Path) -> Result<FaultChoice> {
    match field_str(value, "kind", path)? {
        "none" => Ok(FaultChoice::None),
        "links" => {
            let count = field_u64(value, "count", path)?;
            Ok(FaultChoice::Links {
                count: u32::try_from(count)
                    .map_err(|_| corrupt(path, "fault count out of range"))?,
                seed: field_u64(value, "seed", path)?,
                activation: field_u64(value, "activation", path)?,
            })
        }
        "router" => Ok(FaultChoice::Router {
            seed: field_u64(value, "seed", path)?,
            activation: field_u64(value, "activation", path)?,
        }),
        unknown => Err(corrupt(path, format!("unknown fault kind \"{unknown}\""))),
    }
}

fn render_scenario(scenario: &Scenario) -> String {
    // The `faults` field is emitted only when present (v4): every legacy
    // dimension samples `FaultChoice::None`, so its checkpoints — and the
    // goldens hashed over them — remain byte-identical to v3.
    let faults = if scenario.faults.is_none() {
        String::new()
    } else {
        format!(",\"faults\":{}", render_faults(&scenario.faults))
    };
    format!(
        "{{\"index\":{},\"seed\":{},\"side\":{},\"family\":{},\"design\":{},\
         \"message_flits\":{},\"cycles\":{},\"buffers\":{},\"vcs\":{},\"traffic\":{}{}}}",
        scenario.index,
        scenario.seed,
        scenario.side,
        render_family(&scenario.family),
        render_design(&scenario.design),
        scenario.message_flits,
        scenario.cycles,
        render_buffers(&scenario.buffers),
        render_vcs(&scenario.vcs),
        render_traffic(&scenario.traffic),
        faults
    )
}

fn parse_scenario(value: &Json, path: &Path) -> Result<Scenario> {
    let side = field_u64(value, "side", path)?;
    let message_flits = field_u64(value, "message_flits", path)?;
    Ok(Scenario {
        index: field_usize(value, "index", path)?,
        seed: field_u64(value, "seed", path)?,
        side: u16::try_from(side).map_err(|_| corrupt(path, "mesh side out of range"))?,
        family: parse_family(field(value, "family", path)?, path)?,
        design: parse_design(field(value, "design", path)?, path)?,
        message_flits: u32::try_from(message_flits)
            .map_err(|_| corrupt(path, "message_flits out of range"))?,
        cycles: field_u64(value, "cycles", path)?,
        buffers: parse_buffers(field(value, "buffers", path)?, path)?,
        vcs: parse_vcs(field(value, "vcs", path)?, path)?,
        traffic: parse_traffic(field(value, "traffic", path)?, path)?,
        faults: match value.get("faults") {
            Some(faults) => parse_faults(faults, path)?,
            None => FaultChoice::None,
        },
    })
}

fn render_stats(stats: &LatencyStats) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
        stats.count, stats.sum, stats.min, stats.max
    )
}

fn parse_stats(value: &Json, path: &Path) -> Result<LatencyStats> {
    LatencyStats::from_parts(
        field_u64(value, "count", path)?,
        field_u64(value, "sum", path)?,
        field_u64(value, "min", path)?,
        field_u64(value, "max", path)?,
    )
    .ok_or_else(|| corrupt(path, "latency summary violates the merge algebra"))
}

/// Tightness ratios are serialized as IEEE-754 bit patterns: the merged
/// report re-renders them with the same `{:.6}`/`{:.3}` formatting as the
/// single-process run, so the bits — not a decimal approximation — must
/// survive the round trip.
fn render_tightness(tightness: &TightnessSummary) -> String {
    format!(
        "{{\"flows\":{},\"mean_bits\":{},\"min_bits\":{},\"max_bits\":{}}}",
        tightness.flows,
        tightness.mean.to_bits(),
        tightness.min.to_bits(),
        tightness.max.to_bits()
    )
}

fn parse_tightness(value: &Json, path: &Path) -> Result<TightnessSummary> {
    let ratio = |key| {
        let ratio = f64::from_bits(field_u64(value, key, path)?);
        // Ratios of finite observations to positive bounds; the report's
        // tightest-scenario ordering needs them comparable.
        if ratio.is_finite() {
            Ok(ratio)
        } else {
            Err(corrupt(path, format!("{key} is not a finite ratio")))
        }
    };
    Ok(TightnessSummary {
        flows: field_usize(value, "flows", path)?,
        mean: ratio("mean_bits")?,
        min: ratio("min_bits")?,
        max: ratio("max_bits")?,
    })
}

fn render_violation(violation: &Violation) -> String {
    format!(
        "{{\"flow\":{},\"oracle\":\"{}\",\"observed\":{},\"bound\":{}}}",
        violation.flow.0,
        escape(&violation.oracle),
        violation.observed,
        violation.bound
    )
}

fn parse_violation(value: &Json, path: &Path) -> Result<Violation> {
    Ok(Violation {
        flow: FlowId(field_usize(value, "flow", path)?),
        oracle: field_str(value, "oracle", path)?.to_string(),
        observed: field_u64(value, "observed", path)?,
        bound: field_u64(value, "bound", path)?,
    })
}

fn render_outcome(outcome: &ScenarioOutcome) -> String {
    let violations: Vec<String> = outcome.violations.iter().map(render_violation).collect();
    let ordering: Vec<String> = outcome
        .ordering_violations
        .iter()
        .map(|text| format!("\"{}\"", escape(text)))
        .collect();
    format!(
        "{{\"scenario\":{},\"flow_count\":{},\"observed\":{},\"simulated_cycles\":{},\
         \"dominance_checked\":{},\"violations\":[{}],\"ordering_violations\":[{}],\
         \"tightness\":{}}}",
        render_scenario(&outcome.scenario),
        outcome.flow_count,
        render_stats(&outcome.observed),
        outcome.simulated_cycles,
        outcome.dominance_checked,
        violations.join(","),
        ordering.join(","),
        render_tightness(&outcome.tightness)
    )
}

fn parse_outcome(value: &Json, path: &Path) -> Result<ScenarioOutcome> {
    let violations = field_array(value, "violations", path)?
        .iter()
        .map(|item| parse_violation(item, path))
        .collect::<Result<Vec<_>>>()?;
    let ordering_violations = field_array(value, "ordering_violations", path)?
        .iter()
        .map(|item| {
            item.as_str()
                .map(str::to_string)
                .ok_or_else(|| corrupt(path, "ordering violation is not a string"))
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(ScenarioOutcome {
        scenario: parse_scenario(field(value, "scenario", path)?, path)?,
        flow_count: field_usize(value, "flow_count", path)?,
        observed: parse_stats(field(value, "observed", path)?, path)?,
        simulated_cycles: field_u64(value, "simulated_cycles", path)?,
        dominance_checked: field_bool(value, "dominance_checked", path)?,
        violations,
        ordering_violations,
        tightness: parse_tightness(field(value, "tightness", path)?, path)?,
    })
}

// ---------------------------------------------------------------------------
// Partial reports
// ---------------------------------------------------------------------------

/// The deterministic result of one shard: the campaign identity plus every
/// [`ScenarioOutcome`] of the shard's index range, in index order.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialReport {
    /// The campaign the shard belongs to.
    pub campaign: Campaign,
    /// The shard's index range.
    pub shard: ShardRange,
    /// Outcomes for scenario indices `shard.start..shard.end`, in order.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl PartialReport {
    /// Runs the shard's scenarios and collects their outcomes — the pure
    /// compute half of a worker, shared by the process entry point
    /// ([`Fleet::run_shard`]) and in-process tests.
    ///
    /// # Errors
    ///
    /// Returns the first scenario error, wrapped with the scenario label
    /// (mirrors [`Campaign::run`]).
    pub fn compute(campaign: &Campaign, shard: ShardRange) -> Result<Self> {
        let mut outcomes = Vec::with_capacity(shard.len());
        for index in shard.start..shard.end {
            let scenario = campaign.scenario(index);
            let outcome = scenario.run().map_err(|error| {
                error.with_context(format!("conformance scenario {}", scenario.label()))
            })?;
            outcomes.push(outcome);
        }
        Ok(Self {
            campaign: *campaign,
            shard,
            outcomes,
        })
    }

    /// Converts the partial into a mergeable [`ConformanceReport`] fragment.
    pub fn into_report(self) -> ConformanceReport {
        ConformanceReport {
            seed: self.campaign.seed,
            outcomes: self.outcomes,
        }
    }

    /// Serializes the partial as deterministic JSON (one outcome per line).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "\"format\":\"{}\",\n",
            format_version(self.campaign.dimension)
        ));
        out.push_str("\"kind\":\"partial\",\n");
        out.push_str(&format!(
            "\"config_hash\":{},\n",
            config_hash(&self.campaign)
        ));
        out.push_str(&format!(
            "\"dimension\":\"{}\",\n",
            self.campaign.dimension.tag()
        ));
        out.push_str(&format!("\"seed\":{},\n", self.campaign.seed));
        out.push_str(&format!(
            "\"scenario_count\":{},\n",
            self.campaign.scenarios
        ));
        out.push_str(&format!(
            "\"shard\":{{\"index\":{},\"start\":{},\"end\":{}}},\n",
            self.shard.index, self.shard.start, self.shard.end
        ));
        out.push_str("\"outcomes\":[\n");
        for (position, outcome) in self.outcomes.iter().enumerate() {
            let comma = if position + 1 < self.outcomes.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!("{}{comma}\n", render_outcome(outcome)));
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a partial report and validates its internal consistency: the
    /// format tag, the embedded config hash against the campaign fields, and
    /// that the outcomes are exactly the shard's indices in order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CorruptCheckpoint`] (with `path` as the blamed
    /// artifact) on any parse or consistency failure.
    pub fn parse_json(text: &str, path: &Path) -> Result<Self> {
        let value = parse_json(text).map_err(|reason| corrupt(path, reason))?;
        if field_str(&value, "kind", path)? != "partial" {
            return Err(corrupt(path, "not a partial report"));
        }
        // The expected format tag depends on the dimension (v4 for the fault
        // sweep, v3 otherwise), so resolve the dimension before checking it.
        let dimension_tag = field_str(&value, "dimension", path)?;
        let dimension = CampaignDimension::from_tag(dimension_tag)
            .ok_or_else(|| corrupt(path, format!("unknown dimension \"{dimension_tag}\"")))?;
        if field_str(&value, "format", path)? != format_version(dimension) {
            return Err(corrupt(path, "unknown format version"));
        }
        let campaign = Campaign {
            seed: field_u64(&value, "seed", path)?,
            scenarios: field_usize(&value, "scenario_count", path)?,
            dimension,
        };
        if field_u64(&value, "config_hash", path)? != config_hash(&campaign) {
            return Err(corrupt(path, "config hash does not match campaign fields"));
        }
        let shard_value = field(&value, "shard", path)?;
        let shard = ShardRange {
            index: field_usize(shard_value, "index", path)?,
            start: field_usize(shard_value, "start", path)?,
            end: field_usize(shard_value, "end", path)?,
        };
        if shard.start > shard.end || shard.end > campaign.scenarios {
            return Err(corrupt(path, "shard range outside the campaign"));
        }
        let outcomes = field_array(&value, "outcomes", path)?
            .iter()
            .map(|item| parse_outcome(item, path))
            .collect::<Result<Vec<_>>>()?;
        if outcomes.len() != shard.len() {
            return Err(corrupt(
                path,
                "outcome count does not match the shard range",
            ));
        }
        for (offset, outcome) in outcomes.iter().enumerate() {
            if outcome.scenario.index != shard.start + offset {
                return Err(corrupt(
                    path,
                    "outcome indices do not match the shard range",
                ));
            }
            if outcome.scenario.seed != campaign.seed {
                return Err(corrupt(path, "outcome seed does not match the campaign"));
            }
        }
        Ok(Self {
            campaign,
            shard,
            outcomes,
        })
    }
}

// ---------------------------------------------------------------------------
// Manifests
// ---------------------------------------------------------------------------

/// A shard's commit record, written (atomically, last) once its partial
/// report is durable.  A shard counts as complete exactly when its manifest
/// parses, carries the campaign's config hash and planned range, and the
/// digest matches the partial file's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardManifest {
    /// The campaign config hash the shard was run under.
    pub config_hash: u64,
    /// The shard's index range.
    pub shard: ShardRange,
    /// Outcomes in the partial report (== `shard.len()`).
    pub outcomes: usize,
    /// FNV-1a digest of the partial report file's exact bytes.
    pub partial_digest: u64,
}

impl ShardManifest {
    /// Serializes the manifest as deterministic JSON.
    pub fn render_json(&self) -> String {
        format!(
            "{{\n\"format\":\"{FORMAT_VERSION}\",\n\"kind\":\"manifest\",\n\
             \"config_hash\":{},\n\
             \"shard\":{{\"index\":{},\"start\":{},\"end\":{}}},\n\
             \"outcomes\":{},\n\"partial_digest\":{}\n}}\n",
            self.config_hash,
            self.shard.index,
            self.shard.start,
            self.shard.end,
            self.outcomes,
            self.partial_digest
        )
    }

    /// Parses a manifest.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CorruptCheckpoint`] on any parse failure.
    pub fn parse_json(text: &str, path: &Path) -> Result<Self> {
        let value = parse_json(text).map_err(|reason| corrupt(path, reason))?;
        if field_str(&value, "format", path)? != FORMAT_VERSION {
            return Err(corrupt(path, "unknown format version"));
        }
        if field_str(&value, "kind", path)? != "manifest" {
            return Err(corrupt(path, "not a shard manifest"));
        }
        let shard_value = field(&value, "shard", path)?;
        Ok(Self {
            config_hash: field_u64(&value, "config_hash", path)?,
            shard: ShardRange {
                index: field_usize(shard_value, "index", path)?,
                start: field_usize(shard_value, "start", path)?,
                end: field_usize(shard_value, "end", path)?,
            },
            outcomes: field_usize(&value, "outcomes", path)?,
            partial_digest: field_u64(&value, "partial_digest", path)?,
        })
    }
}

// ---------------------------------------------------------------------------
// The fleet
// ---------------------------------------------------------------------------

/// Internal verdict of [`Fleet::verify_shard`]: which checkpoint artifact is
/// at fault, so [`Error::CorruptCheckpoint`] blames the actually-corrupt
/// file (a bad partial must not be reported against its manifest).
enum ShardFault {
    /// No manifest: the shard never committed (not a corruption).
    Missing,
    /// A checkpoint artifact failed validation.
    Corrupt {
        /// The artifact at fault (partial or manifest).
        path: PathBuf,
        /// Why it failed, with expected-vs-actual digests where applicable.
        reason: String,
    },
}

/// How a shard's checkpoint looked when scanned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardState {
    /// Manifest valid, digest matches: the shard will not be re-run.
    Complete,
    /// No manifest: the shard has never committed.
    Missing,
    /// A checkpoint artifact exists but failed validation (the reason says
    /// why); the shard is re-run and its files overwritten.
    Corrupt(String),
}

/// One shard's scan result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStatus {
    /// The planned range.
    pub range: ShardRange,
    /// Checkpoint state.
    pub state: ShardState,
    /// Recorded run attempts (lines in the shard's attempts file) — the
    /// fault-injection observable: a resumed campaign increments this only
    /// for the shards it actually re-ran.
    pub attempts: usize,
}

/// Summary of one [`Fleet::run_with`] invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetRunSummary {
    /// Shards executed by this invocation, in plan order.
    pub ran: Vec<usize>,
    /// Shards whose checkpoints were already complete and were reused.
    pub reused: Vec<usize>,
    /// `true` when the invocation stopped early (`halt_after`), simulating a
    /// killed campaign; the directory is resumable.
    pub halted: bool,
}

/// A sharded, checkpointed campaign: the [`Campaign`], a shard count, and
/// the campaign directory holding the checkpoints.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// The campaign being run.
    pub campaign: Campaign,
    /// Requested shard count (clamped by [`partition`]).
    pub shards: usize,
    /// Campaign directory (created by [`Fleet::prepare_dir`]).
    pub dir: PathBuf,
    /// Watchdog budget per worker attempt: a worker still running after this
    /// long is killed and its shard retried once; a second overrun fails the
    /// campaign with [`Error::ShardFailed`].  `None` (the default) disables
    /// the watchdog.
    pub shard_timeout: Option<Duration>,
}

impl Fleet {
    /// Creates a fleet description (no filesystem access).
    pub fn new(campaign: Campaign, shards: usize, dir: impl Into<PathBuf>) -> Self {
        Self {
            campaign,
            shards,
            dir: dir.into(),
            shard_timeout: None,
        }
    }

    /// Arms the per-shard watchdog (see [`Fleet::shard_timeout`]).
    #[must_use]
    pub fn with_shard_timeout(mut self, timeout: Duration) -> Self {
        self.shard_timeout = Some(timeout);
        self
    }

    /// The shard plan.
    pub fn plan(&self) -> Vec<ShardRange> {
        partition(self.campaign.scenarios, self.shards)
    }

    /// The campaign's config hash (see [`config_hash`]).
    pub fn config_hash(&self) -> u64 {
        config_hash(&self.campaign)
    }

    /// Path of shard `index`'s partial report.
    pub fn partial_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("shard-{index:03}.partial.json"))
    }

    /// Path of shard `index`'s manifest.
    pub fn manifest_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("shard-{index:03}.manifest.json"))
    }

    /// Path of shard `index`'s attempts file (one line per run attempt).
    pub fn attempts_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("shard-{index:03}.attempts"))
    }

    /// Path of the campaign-level manifest.
    pub fn campaign_manifest_path(&self) -> PathBuf {
        self.dir.join("campaign.json")
    }

    fn render_campaign_manifest(&self) -> String {
        format!(
            "{{\n\"format\":\"{}\",\n\"kind\":\"campaign\",\n\
             \"config_hash\":{},\n\"dimension\":\"{}\",\n\"seed\":{},\n\
             \"scenario_count\":{}\n}}\n",
            format_version(self.campaign.dimension),
            self.config_hash(),
            self.campaign.dimension.tag(),
            self.campaign.seed,
            self.campaign.scenarios
        )
    }

    /// Creates the campaign directory and its `campaign.json` manifest, or
    /// validates an existing one for resume.
    ///
    /// A directory whose manifest carries a *different* config hash is a
    /// stale checkpoint dir from another campaign: it is **rejected**, never
    /// merged — pass `fresh = true` (the front-end's `--fresh`) to wipe and
    /// re-initialise it instead.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CorruptCheckpoint`] for a config mismatch or an
    /// unreadable/unparseable manifest, and wraps filesystem errors the same
    /// way.
    pub fn prepare_dir(&self, fresh: bool) -> Result<()> {
        let manifest_path = self.campaign_manifest_path();
        if fresh && self.dir.exists() {
            fs::remove_dir_all(&self.dir)
                .map_err(|e| corrupt(&self.dir, format!("cannot clear directory: {e}")))?;
        }
        fs::create_dir_all(&self.dir)
            .map_err(|e| corrupt(&self.dir, format!("cannot create directory: {e}")))?;
        let expected = self.render_campaign_manifest();
        match fs::read_to_string(&manifest_path) {
            Ok(existing) => {
                let parsed =
                    parse_json(&existing).map_err(|reason| corrupt(&manifest_path, reason))?;
                let hash = field_u64(&parsed, "config_hash", &manifest_path)?;
                if hash != self.config_hash() {
                    return Err(corrupt(
                        &manifest_path,
                        format!(
                            "campaign config mismatch (directory has {:#018x}, this campaign \
                             is {:#018x}: seed {}, {} scenarios, {} dimension) — use a \
                             different --dir or pass --fresh to discard the old checkpoints",
                            hash,
                            self.config_hash(),
                            self.campaign.seed,
                            self.campaign.scenarios,
                            self.campaign.dimension.tag()
                        ),
                    ));
                }
                Ok(())
            }
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => {
                write_atomic(&manifest_path, expected.as_bytes())
            }
            Err(error) => Err(corrupt(
                &manifest_path,
                format!("cannot read campaign manifest: {error}"),
            )),
        }
    }

    /// Classifies every planned shard's checkpoint (no scenario is run).
    pub fn scan(&self) -> Vec<ShardStatus> {
        self.plan()
            .into_iter()
            .map(|range| ShardStatus {
                range,
                state: self.shard_state(range),
                attempts: self.attempts(range.index),
            })
            .collect()
    }

    fn shard_state(&self, range: ShardRange) -> ShardState {
        match self.verify_shard(range) {
            Ok(()) => ShardState::Complete,
            Err(ShardFault::Missing) => ShardState::Missing,
            Err(ShardFault::Corrupt { path, reason }) => {
                ShardState::Corrupt(format!("{}: {reason}", path.display()))
            }
        }
    }

    /// Validates shard `range`'s checkpoint pair, blaming the artifact that
    /// actually failed: manifest faults (unreadable, unparseable, wrong
    /// config/range/count) name the manifest file; partial faults
    /// (unreadable, digest mismatch against the manifest's recorded FNV-1a)
    /// name the partial file.  Digest faults carry the expected and actual
    /// digests so a truncated or hand-edited partial is diagnosable from the
    /// error alone.
    fn verify_shard(&self, range: ShardRange) -> std::result::Result<(), ShardFault> {
        let manifest_path = self.manifest_path(range.index);
        let blame_manifest = |reason: String| ShardFault::Corrupt {
            path: manifest_path.clone(),
            reason,
        };
        let text = match fs::read_to_string(&manifest_path) {
            Ok(text) => text,
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => {
                return Err(ShardFault::Missing);
            }
            Err(error) => return Err(blame_manifest(format!("manifest unreadable: {error}"))),
        };
        let manifest = ShardManifest::parse_json(&text, &manifest_path).map_err(|error| {
            blame_manifest(match error {
                Error::CorruptCheckpoint { reason, .. } => reason,
                other => other.to_string(),
            })
        })?;
        if manifest.config_hash != self.config_hash() {
            return Err(blame_manifest(format!(
                "manifest config hash mismatch: campaign is {:#018x}, manifest records {:#018x}",
                self.config_hash(),
                manifest.config_hash
            )));
        }
        if manifest.shard != range {
            return Err(blame_manifest(format!(
                "manifest range [{}..{}) does not match planned {range}",
                manifest.shard.start, manifest.shard.end
            )));
        }
        if manifest.outcomes != range.len() {
            return Err(blame_manifest(format!(
                "manifest outcome count mismatch: shard holds {} scenarios, manifest records {}",
                range.len(),
                manifest.outcomes
            )));
        }
        let partial_path = self.partial_path(range.index);
        let blame_partial = |reason: String| ShardFault::Corrupt {
            path: partial_path.clone(),
            reason,
        };
        let bytes = match fs::read(&partial_path) {
            Ok(bytes) => bytes,
            Err(error) => {
                return Err(blame_partial(format!("partial report unreadable: {error}")));
            }
        };
        let actual = fnv1a(&bytes);
        if actual != manifest.partial_digest {
            return Err(blame_partial(format!(
                "partial report digest mismatch: manifest expects {:#018x}, file bytes hash \
                 to {:#018x}",
                manifest.partial_digest, actual
            )));
        }
        Ok(())
    }

    /// Run attempts recorded for shard `index` (0 when never attempted).
    pub fn attempts(&self, index: usize) -> usize {
        fs::read_to_string(self.attempts_path(index))
            .map(|text| text.lines().count())
            .unwrap_or(0)
    }

    fn record_attempt(&self, index: usize) -> Result<()> {
        let path = self.attempts_path(index);
        let mut existing = fs::read_to_string(&path).unwrap_or_default();
        existing.push_str("attempt\n");
        write_atomic(&path, existing.as_bytes())
    }

    /// Worker entry point: runs shard `index`'s scenarios and commits its
    /// checkpoint (partial report first, manifest last, both written to a
    /// temporary name and renamed — the manifest is the commit point).
    ///
    /// Records one line in the shard's attempts file *before* running, so a
    /// worker killed mid-shard is still visible as an attempt.
    ///
    /// # Errors
    ///
    /// Returns scenario errors (wrapped with the scenario label) and
    /// filesystem failures as [`Error::CorruptCheckpoint`].
    pub fn run_shard(&self, index: usize) -> Result<()> {
        let plan = self.plan();
        let range = *plan.get(index).ok_or_else(|| Error::InvalidConfig {
            reason: format!("shard {index} outside the {}-shard plan", plan.len()),
        })?;
        fs::create_dir_all(&self.dir)
            .map_err(|e| corrupt(&self.dir, format!("cannot create directory: {e}")))?;
        self.record_attempt(index)?;
        let partial = PartialReport::compute(&self.campaign, range)?;
        // Deterministic fault-injection window for kill tests: outcomes are
        // computed, nothing is committed yet.
        if let Ok(stall) = std::env::var(STALL_ENV) {
            if let Ok(millis) = stall.parse::<u64>() {
                std::thread::sleep(Duration::from_millis(millis));
            }
        }
        // The attempt line above was this attempt's: count == 1 means no
        // prior attempt existed, i.e. this is the shard's first run.
        if self.attempts(index) == 1 {
            if let Ok(stall) = std::env::var(STALL_ONCE_ENV) {
                if let Ok(millis) = stall.parse::<u64>() {
                    std::thread::sleep(Duration::from_millis(millis));
                }
            }
        }
        let json = partial.render_json();
        write_atomic(&self.partial_path(index), json.as_bytes())?;
        let manifest = ShardManifest {
            config_hash: self.config_hash(),
            shard: range,
            outcomes: range.len(),
            partial_digest: fnv1a(json.as_bytes()),
        };
        write_atomic(
            &self.manifest_path(index),
            manifest.render_json().as_bytes(),
        )
    }

    /// Orchestrates the fleet: scans the directory, reuses complete shards,
    /// and drives the incomplete ones through worker processes — at most
    /// `workers` children at a time, spawned by `spawn` (typically
    /// `current_exe() --worker-shard <index>`).
    ///
    /// `halt_after` stops the invocation once that many shards have
    /// completed *in this invocation* (in-flight children are killed),
    /// simulating a campaign death for resume tests and the CI smoke; the
    /// summary comes back with `halted = true` and the directory resumes
    /// cleanly.
    ///
    /// # Errors
    ///
    /// Fails if a worker cannot be spawned, exits unsuccessfully, or exits
    /// successfully without leaving a valid checkpoint.  Completed shards
    /// keep their checkpoints either way — a failed campaign is resumable.
    /// With [`Fleet::shard_timeout`] armed, a worker that overruns the
    /// budget is killed and its shard respawned once; a second overrun
    /// returns [`Error::ShardFailed`] naming the shard.
    pub fn run_with(
        &self,
        workers: usize,
        halt_after: Option<usize>,
        mut spawn: impl FnMut(&ShardRange) -> std::io::Result<Child>,
    ) -> Result<FleetRunSummary> {
        struct Inflight {
            range: ShardRange,
            child: Child,
            started: Instant,
            /// Watchdog kills already spent on this shard (0 or 1).
            timeouts: usize,
        }
        let statuses = self.scan();
        let mut summary = FleetRunSummary {
            ran: Vec::new(),
            reused: Vec::new(),
            halted: false,
        };
        let mut pending: Vec<ShardRange> = Vec::new();
        for status in statuses {
            if status.state == ShardState::Complete {
                summary.reused.push(status.range.index);
            } else {
                pending.push(status.range);
            }
        }
        let workers = workers.max(1);
        let mut queue = pending.into_iter();
        let mut inflight: Vec<Inflight> = Vec::new();
        let mut completed_now = 0usize;
        let halt_budget = halt_after.unwrap_or(usize::MAX);

        loop {
            while inflight.len() < workers && completed_now < halt_budget {
                let Some(range) = queue.next() else { break };
                let child = spawn(&range).map_err(|e| {
                    corrupt(&self.dir, format!("cannot spawn worker for {range}: {e}"))
                })?;
                inflight.push(Inflight {
                    range,
                    child,
                    started: Instant::now(),
                    timeouts: 0,
                });
            }
            if inflight.is_empty() {
                break;
            }
            // std::process has no wait-any; poll the small in-flight set.
            let (position, status) = 'poll: loop {
                for (position, entry) in inflight.iter_mut().enumerate() {
                    match entry.child.try_wait() {
                        Ok(Some(status)) => break 'poll (position, status),
                        Ok(None) => {}
                        Err(error) => {
                            return Err(corrupt(
                                &self.dir,
                                format!("cannot wait for worker of {}: {error}", entry.range),
                            ));
                        }
                    }
                    // Watchdog: a worker past its wall-clock budget gets
                    // SIGKILL'd; its checkpoint is uncommitted (the manifest
                    // is the commit point), so the shard retries cleanly.
                    if let Some(timeout) = self.shard_timeout {
                        if entry.started.elapsed() >= timeout {
                            let _ = entry.child.kill();
                            let _ = entry.child.wait();
                            if entry.timeouts >= 1 {
                                let range = entry.range;
                                inflight.remove(position);
                                for other in inflight.iter_mut() {
                                    let _ = other.child.kill();
                                    let _ = other.child.wait();
                                }
                                return Err(Error::ShardFailed {
                                    shard: range.index,
                                    reason: format!(
                                        "worker exceeded the {timeout:?} shard timeout twice \
                                         (killed both times); completed shards are \
                                         checkpointed — re-run to resume"
                                    ),
                                });
                            }
                            entry.child = spawn(&entry.range).map_err(|e| {
                                corrupt(
                                    &self.dir,
                                    format!("cannot respawn worker for {}: {e}", entry.range),
                                )
                            })?;
                            entry.started = Instant::now();
                            entry.timeouts += 1;
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            };
            let entry = inflight.swap_remove(position);
            let range = entry.range;
            if !status.success() {
                return Err(corrupt(
                    &self.dir,
                    format!(
                        "worker for {range} exited with {status}; completed shards are \
                         checkpointed — re-run to resume"
                    ),
                ));
            }
            if self.shard_state(range) != ShardState::Complete {
                return Err(corrupt(
                    &self.manifest_path(range.index),
                    format!("worker for {range} exited successfully without a valid checkpoint"),
                ));
            }
            summary.ran.push(range.index);
            completed_now += 1;
            if completed_now >= halt_budget && (queue.len() > 0 || !inflight.is_empty()) {
                // Simulate the campaign dying: kill in-flight workers
                // mid-shard and stop spawning.  Their shards stay incomplete
                // and re-run on resume.
                for entry in inflight.iter_mut() {
                    let _ = entry.child.kill();
                    let _ = entry.child.wait();
                }
                summary.halted = true;
                break;
            }
        }
        summary.ran.sort_unstable();
        summary.reused.sort_unstable();
        Ok(summary)
    }

    /// Merges every shard's partial report into the campaign's final
    /// [`ConformanceReport`] — byte-identical to the single-process
    /// [`Campaign::run`] output.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CorruptCheckpoint`] if any shard is missing or fails
    /// validation (run the fleet to completion first).
    pub fn merge(&self) -> Result<ConformanceReport> {
        let mut report = ConformanceReport::empty(self.campaign.seed);
        for range in self.plan() {
            match self.verify_shard(range) {
                Ok(()) => {}
                Err(ShardFault::Missing) => {
                    return Err(corrupt(
                        &self.manifest_path(range.index),
                        format!("{range} has no checkpoint; run the fleet to completion"),
                    ));
                }
                Err(ShardFault::Corrupt { path, reason }) => {
                    return Err(corrupt(&path, reason));
                }
            }
            let path = self.partial_path(range.index);
            let text = fs::read_to_string(&path)
                .map_err(|e| corrupt(&path, format!("partial unreadable: {e}")))?;
            let partial = PartialReport::parse_json(&text, &path)?;
            if partial.campaign != self.campaign {
                return Err(corrupt(&path, "partial campaign does not match the fleet"));
            }
            if partial.shard != range {
                return Err(corrupt(&path, "partial range does not match the plan"));
            }
            report.merge(partial.into_report());
        }
        Ok(report)
    }

    /// Renders the deterministic shard table printed by `expt-campaign`:
    /// the plan, each shard's attempts, and whether this invocation ran or
    /// reused it.  Contains no paths or timings, so it is golden-snapshot
    /// stable.
    pub fn render_status(&self, summary: &FleetRunSummary) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Campaign fleet — {} scenarios, seed {}, dimension {}, {} shard(s), \
             config {:#018x}\n",
            self.campaign.scenarios,
            self.campaign.seed,
            self.campaign.dimension.tag(),
            self.plan().len(),
            self.config_hash()
        ));
        out.push_str("shard | range        | scenarios | attempts | status\n");
        for status in self.scan() {
            let verdict = if summary.ran.contains(&status.range.index) {
                "ran"
            } else if summary.reused.contains(&status.range.index) {
                "reused"
            } else {
                match status.state {
                    ShardState::Complete => "complete",
                    ShardState::Missing => "missing",
                    ShardState::Corrupt(_) => "corrupt",
                }
            };
            out.push_str(&format!(
                "  {:03} | [{:>4}..{:>4}) | {:>9} | {:>8} | {}\n",
                status.range.index,
                status.range.start,
                status.range.end,
                status.range.len(),
                status.attempts,
                verdict
            ));
        }
        out
    }
}

/// Writes `bytes` to `path` atomically: a temporary sibling plus a rename,
/// so readers never observe a half-written checkpoint artifact.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, bytes).map_err(|e| corrupt(&tmp, format!("cannot write: {e}")))?;
    fs::rename(&tmp, path).map_err(|e| corrupt(path, format!("cannot rename into place: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wnoc-fleet-unit-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn partition_covers_every_index_contiguously() {
        for scenarios in [1usize, 2, 5, 7, 16, 100] {
            for shards in [1usize, 2, 3, 4, 7, 8, 200] {
                let plan = partition(scenarios, shards);
                assert!(!plan.is_empty());
                assert!(plan.len() <= shards.min(scenarios));
                assert_eq!(plan[0].start, 0);
                assert_eq!(plan.last().unwrap().end, scenarios);
                for window in plan.windows(2) {
                    assert_eq!(window[0].end, window[1].start, "contiguous");
                }
                for (index, range) in plan.iter().enumerate() {
                    assert_eq!(range.index, index);
                    assert!(!range.is_empty(), "no empty shards");
                }
                // Balanced: lengths differ by at most one.
                let lens: Vec<usize> = plan.iter().map(ShardRange::len).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "{scenarios}/{shards}: {lens:?}");
            }
        }
    }

    #[test]
    fn partition_edge_cases() {
        // Empty campaign: nothing to run.
        assert!(partition(0, 4).is_empty());
        assert!(partition(0, 0).is_empty());
        // Shards clamped: more shards than scenarios yields one per scenario.
        assert_eq!(partition(3, 8).len(), 3);
        // Zero requested shards clamps up to one.
        assert_eq!(partition(5, 0).len(), 1);
        // Single shard spans everything.
        let single = partition(9, 1);
        assert_eq!(single.len(), 1);
        assert_eq!((single[0].start, single[0].end), (0, 9));
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        // The offset basis and the standard test vector for "a": the digest
        // must stay stable across releases or every checkpoint invalidates.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn config_hash_separates_campaigns() {
        let base = Campaign::new(7, 200);
        assert_eq!(config_hash(&base), config_hash(&Campaign::new(7, 200)));
        assert_ne!(config_hash(&base), config_hash(&Campaign::new(8, 200)));
        assert_ne!(config_hash(&base), config_hash(&Campaign::new(7, 201)));
        assert_ne!(
            config_hash(&base),
            config_hash(&Campaign::buffer_sweep(7, 200))
        );
        assert_ne!(config_hash(&base), config_hash(&Campaign::vc_sweep(7, 200)));
        assert_ne!(
            config_hash(&Campaign::buffer_sweep(7, 200)),
            config_hash(&Campaign::vc_sweep(7, 200))
        );
        assert_ne!(
            config_hash(&base),
            config_hash(&Campaign::bursty_sweep(7, 200))
        );
        assert_ne!(
            config_hash(&Campaign::vc_sweep(7, 200)),
            config_hash(&Campaign::bursty_sweep(7, 200))
        );
        assert_ne!(
            config_hash(&base),
            config_hash(&Campaign::fault_sweep(7, 200))
        );
        assert_ne!(
            config_hash(&Campaign::bursty_sweep(7, 200)),
            config_hash(&Campaign::fault_sweep(7, 200))
        );
    }

    /// Legacy dimensions must keep hashing the v3 format string: the
    /// expt-campaign golden embeds `config 0xb455082569e10341` for
    /// `Campaign::new(7, 25)`, and a silent hash change would orphan every
    /// existing checkpoint directory.
    #[test]
    fn legacy_config_hash_is_frozen() {
        assert_eq!(config_hash(&Campaign::new(7, 25)), 0xb455_0825_69e1_0341);
        assert_eq!(format_version(CampaignDimension::Core), FORMAT_VERSION);
        assert_eq!(
            format_version(CampaignDimension::FaultSweep),
            FORMAT_VERSION_V4
        );
    }

    /// A handcrafted outcome exercising every codec branch: violations,
    /// ordering strings with quotes/backslashes/newlines, non-finite-free
    /// floats that do not survive decimal printing, and an empty stats edge.
    fn nasty_outcome() -> ScenarioOutcome {
        let mut observed = LatencyStats::new();
        observed.record(17);
        observed.record(3);
        ScenarioOutcome {
            scenario: Scenario {
                index: 42,
                seed: 9,
                side: 5,
                family: ScenarioFamily::Placement {
                    name: "P\"\\\n1".to_string(),
                    memory: Coord::new(0, 0),
                    cores: vec![Coord::new(1, 2), Coord::new(3, 4)],
                },
                design: DesignChoice::Regular {
                    max_packet_flits: 8,
                },
                message_flits: 9,
                cycles: 1_234,
                buffers: BufferChoice::Heterogeneous { seed: 77 },
                vcs: VcChoice::Count {
                    count: 3,
                    assignment: VcAssignment::Distance,
                },
                traffic: TrafficChoice::Bursty {
                    burst: 5,
                    gap: 4_321,
                    cv: 50,
                },
                faults: FaultChoice::None,
            },
            flow_count: 3,
            observed,
            simulated_cycles: 9_876,
            dominance_checked: true,
            violations: vec![Violation {
                flow: FlowId(2),
                oracle: "buffer-aware".to_string(),
                observed: 100,
                bound: 99,
            }],
            ordering_violations: vec!["f0: \"slot\" above\nreference \\ bound".to_string()],
            tightness: TightnessSummary {
                flows: 3,
                mean: 0.1 + 0.2, // 0.30000000000000004: decimal printing loses it
                min: f64::MIN_POSITIVE,
                max: 1.0000000000000002,
            },
        }
    }

    #[test]
    fn outcome_codec_round_trips_exactly() {
        let outcome = nasty_outcome();
        let rendered = render_outcome(&outcome);
        let parsed = parse_json(&rendered).expect("rendered outcome parses");
        let back = parse_outcome(&parsed, Path::new("inline")).expect("outcome reconstructs");
        assert_eq!(back, outcome);
        // Float bits, not decimal approximations.
        assert_eq!(
            back.tightness.mean.to_bits(),
            outcome.tightness.mean.to_bits()
        );
        assert_eq!(
            back.tightness.min.to_bits(),
            outcome.tightness.min.to_bits()
        );
    }

    #[test]
    fn every_family_round_trips() {
        let families = [
            ScenarioFamily::AllToOne {
                hotspot: Coord::new(3, 1),
            },
            ScenarioFamily::OneToAll {
                source: Coord::new(0, 7),
            },
            ScenarioFamily::Endpoints {
                memories: vec![Coord::new(1, 1), Coord::new(2, 2)],
            },
            ScenarioFamily::RandomPairs {
                pairs: vec![(NodeId(0), NodeId(5)), (NodeId(9), NodeId(1))],
            },
            ScenarioFamily::Placement {
                name: "P3".to_string(),
                memory: Coord::new(0, 0),
                cores: vec![Coord::new(4, 4)],
            },
        ];
        for family in families {
            let rendered = render_family(&family);
            let parsed = parse_json(&rendered).expect("family renders as JSON");
            let back = parse_family(&parsed, Path::new("inline")).expect("family reconstructs");
            assert_eq!(back, family);
        }
    }

    #[test]
    fn every_traffic_choice_round_trips() {
        for traffic in [
            TrafficChoice::ClosedLoop,
            TrafficChoice::Bursty {
                burst: 0,
                gap: 1,
                cv: 0,
            },
            TrafficChoice::Bursty {
                burst: 6,
                gap: 123_456,
                cv: 50,
            },
        ] {
            let rendered = render_traffic(&traffic);
            let parsed = parse_json(&rendered).expect("traffic renders as JSON");
            let back = parse_traffic(&parsed, Path::new("inline")).expect("traffic reconstructs");
            assert_eq!(back, traffic);
        }
    }

    #[test]
    fn every_fault_choice_round_trips() {
        for faults in [
            FaultChoice::None,
            FaultChoice::Links {
                count: 3,
                seed: 987_654,
                activation: 0,
            },
            FaultChoice::Router {
                seed: 42,
                activation: 5_000,
            },
        ] {
            let rendered = render_faults(&faults);
            let parsed = parse_json(&rendered).expect("faults render as JSON");
            let back = parse_faults(&parsed, Path::new("inline")).expect("faults reconstruct");
            assert_eq!(back, faults);
        }
    }

    /// A fault-free scenario must serialize without any `faults` field so v3
    /// checkpoints (and the goldens hashed over them) stay byte-identical,
    /// while a faulted scenario round-trips through the optional field.
    #[test]
    fn fault_field_is_omitted_when_absent_and_round_trips_when_present() {
        let mut scenario = nasty_outcome().scenario;
        assert!(!render_scenario(&scenario).contains("faults"));

        scenario.faults = FaultChoice::Links {
            count: 2,
            seed: 31_337,
            activation: 617,
        };
        let rendered = render_scenario(&scenario);
        assert!(rendered.contains("\"faults\":"));
        let parsed = parse_json(&rendered).expect("scenario renders as JSON");
        let back = parse_scenario(&parsed, Path::new("inline")).expect("scenario reconstructs");
        assert_eq!(back, scenario);
    }

    /// Fault-sweep partials carry the v4 format tag and survive the full
    /// render → parse → validate cycle (including faulted scenarios).
    #[test]
    fn fault_sweep_partial_report_round_trips_at_v4() {
        let campaign = Campaign::fault_sweep(11, 4);
        let shard = ShardRange {
            index: 0,
            start: 0,
            end: 4,
        };
        let partial = PartialReport::compute(&campaign, shard).unwrap();
        let json = partial.render_json();
        assert!(json.contains(&format!("\"format\":\"{FORMAT_VERSION_V4}\"")));
        let back = PartialReport::parse_json(&json, Path::new("inline")).unwrap();
        assert_eq!(back, partial);

        // A v4 partial relabeled v3 is rejected: the format check is
        // dimension-aware.
        let downgraded = json.replacen(FORMAT_VERSION_V4, FORMAT_VERSION, 1);
        assert!(matches!(
            PartialReport::parse_json(&downgraded, Path::new("inline")),
            Err(Error::CorruptCheckpoint { .. })
        ));
    }

    #[test]
    fn partial_report_json_round_trips_and_validates() {
        let campaign = Campaign::new(11, 6);
        let shard = ShardRange {
            index: 1,
            start: 3,
            end: 6,
        };
        let partial = PartialReport::compute(&campaign, shard).unwrap();
        let json = partial.render_json();
        let back = PartialReport::parse_json(&json, Path::new("inline")).unwrap();
        assert_eq!(back, partial);

        // Tampered config hash is rejected.
        let tampered = json.replacen("\"config_hash\":", "\"config_hash\":1", 1);
        assert!(matches!(
            PartialReport::parse_json(&tampered, Path::new("inline")),
            Err(Error::CorruptCheckpoint { .. })
        ));
        // Truncation is rejected.
        assert!(PartialReport::parse_json(&json[..json.len() / 2], Path::new("inline")).is_err());
    }

    #[test]
    fn manifest_json_round_trips() {
        let manifest = ShardManifest {
            config_hash: 0xdead_beef,
            shard: ShardRange {
                index: 3,
                start: 10,
                end: 20,
            },
            outcomes: 10,
            partial_digest: fnv1a(b"partial bytes"),
        };
        let back = ShardManifest::parse_json(&manifest.render_json(), Path::new("inline")).unwrap();
        assert_eq!(back, manifest);
    }

    #[test]
    fn merge_is_order_independent_and_matches_single_process() {
        let campaign = Campaign::new(3, 5);
        let reference = campaign.run(1).unwrap();
        let partials: Vec<PartialReport> = partition(campaign.scenarios, 3)
            .into_iter()
            .map(|range| PartialReport::compute(&campaign, range).unwrap())
            .collect();
        // Merge in reverse and in plan order: identical bytes either way.
        for order in [vec![2usize, 0, 1], vec![0, 1, 2], vec![1, 2, 0]] {
            let mut merged = ConformanceReport::empty(campaign.seed);
            for position in order {
                merged.merge(partials[position].clone().into_report());
            }
            assert_eq!(merged, reference);
            assert_eq!(merged.render(), reference.render());
            assert_eq!(merged.render_json(), reference.render_json());
        }
    }

    #[test]
    fn empty_report_is_the_merge_identity() {
        let campaign = Campaign::new(5, 3);
        let report = campaign.run(1).unwrap();
        let mut merged = ConformanceReport::empty(5);
        merged.merge(report.clone());
        merged.merge(ConformanceReport::empty(5));
        assert_eq!(merged, report);
    }

    #[test]
    fn fleet_checkpoints_scan_and_merge_on_disk() {
        let dir = temp_dir("roundtrip");
        let fleet = Fleet::new(Campaign::new(11, 5), 2, &dir);
        fleet.prepare_dir(false).unwrap();

        // Nothing committed yet.
        assert!(fleet
            .scan()
            .iter()
            .all(|status| status.state == ShardState::Missing && status.attempts == 0));
        assert!(fleet.merge().is_err());

        fleet.run_shard(0).unwrap();
        fleet.run_shard(1).unwrap();
        assert!(fleet
            .scan()
            .iter()
            .all(|status| status.state == ShardState::Complete && status.attempts == 1));

        let merged = fleet.merge().unwrap();
        let reference = fleet.campaign.run(1).unwrap();
        assert_eq!(merged, reference);
        assert_eq!(merged.render_json(), reference.render_json());

        // Truncating a partial flips exactly that shard to corrupt, and the
        // fault is blamed on the *partial* file — with the expected (from
        // the manifest) and actual digests — not on its healthy manifest.
        let partial_path = fleet.partial_path(1);
        let bytes = fs::read(&partial_path).unwrap();
        fs::write(&partial_path, &bytes[..bytes.len() / 2]).unwrap();
        let statuses = fleet.scan();
        assert_eq!(statuses[0].state, ShardState::Complete);
        let ShardState::Corrupt(reason) = &statuses[1].state else {
            panic!("truncated partial not flagged corrupt: {:?}", statuses[1]);
        };
        assert!(reason.contains("partial.json"), "{reason}");
        assert!(reason.contains("digest mismatch"), "{reason}");
        let manifest_text = fs::read_to_string(fleet.manifest_path(1)).unwrap();
        let recorded = ShardManifest::parse_json(&manifest_text, &fleet.manifest_path(1))
            .unwrap()
            .partial_digest;
        let truncated = fnv1a(&bytes[..bytes.len() / 2]);
        assert!(reason.contains(&format!("{recorded:#018x}")), "{reason}");
        assert!(reason.contains(&format!("{truncated:#018x}")), "{reason}");
        let merge_error = fleet.merge().unwrap_err();
        let rendered = merge_error.to_string();
        assert!(
            rendered.contains("partial.json") && !rendered.contains("manifest.json"),
            "merge must blame the partial, got: {rendered}"
        );

        // Tampering with the *manifest* blames the manifest instead.
        let manifest_path = fleet.manifest_path(0);
        let original_manifest = fs::read_to_string(&manifest_path).unwrap();
        fs::write(&manifest_path, original_manifest.replace('{', "")).unwrap();
        let statuses = fleet.scan();
        let ShardState::Corrupt(reason) = &statuses[0].state else {
            panic!("tampered manifest not flagged corrupt: {:?}", statuses[0]);
        };
        assert!(reason.contains("manifest.json"), "{reason}");
        fs::write(&manifest_path, original_manifest).unwrap();
        assert!(fleet.merge().is_err());

        // Re-running the shard repairs it; the attempt counter records it.
        fleet.run_shard(1).unwrap();
        assert_eq!(fleet.attempts(1), 2);
        assert_eq!(
            fleet.merge().unwrap().render_json(),
            reference.render_json()
        );

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_campaign_dir_is_rejected_not_merged() {
        let dir = temp_dir("stale");
        let original = Fleet::new(Campaign::new(7, 4), 2, &dir);
        original.prepare_dir(false).unwrap();
        original.run_shard(0).unwrap();

        // A different campaign config must refuse the directory outright.
        for other in [
            Campaign::new(8, 4),
            Campaign::new(7, 5),
            Campaign::buffer_sweep(7, 4),
        ] {
            let stale = Fleet::new(other, 2, &dir);
            let error = stale.prepare_dir(false).unwrap_err();
            assert!(matches!(error, Error::CorruptCheckpoint { .. }), "{error}");
            assert!(error.to_string().contains("config mismatch"), "{error}");
        }

        // Same config resumes fine; --fresh wipes and re-initialises.
        original.prepare_dir(false).unwrap();
        assert_eq!(original.scan()[0].state, ShardState::Complete);
        let refreshed = Fleet::new(Campaign::new(8, 4), 2, &dir);
        refreshed.prepare_dir(true).unwrap();
        assert!(refreshed
            .scan()
            .iter()
            .all(|status| status.state == ShardState::Missing));

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_shard_rejects_out_of_plan_indices() {
        let dir = temp_dir("oob");
        let fleet = Fleet::new(Campaign::new(1, 3), 2, &dir);
        assert!(fleet.run_shard(5).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A VC-sweep partial of `outcomes`, re-indexed to scenarios `0..n` of
    /// the campaign (the shape `PartialReport::parse_json` validates).
    fn vc_partial(outcomes: Vec<ScenarioOutcome>) -> PartialReport {
        let campaign = Campaign::vc_sweep(9, outcomes.len());
        let outcomes: Vec<ScenarioOutcome> = outcomes
            .into_iter()
            .enumerate()
            .map(|(index, mut outcome)| {
                outcome.scenario.index = index;
                outcome.scenario.seed = campaign.seed;
                outcome
            })
            .collect();
        PartialReport {
            campaign,
            shard: ShardRange {
                index: 0,
                start: 0,
                end: outcomes.len(),
            },
            outcomes,
        }
    }

    #[test]
    fn hostile_nesting_is_corrupt_not_a_stack_overflow() {
        let deep = "[".repeat(10_000);
        let path = Path::new("inline");
        assert!(matches!(
            ShardManifest::parse_json(&deep, path),
            Err(Error::CorruptCheckpoint { .. })
        ));
        assert!(matches!(
            PartialReport::parse_json(&format!("{{\"outcomes\":{deep}"), path),
            Err(Error::CorruptCheckpoint { .. })
        ));
        // The deepest legal document still parses: a placement family's
        // core coordinates sit 7 levels down.
        let partial = vc_partial(vec![nasty_outcome()]);
        let back = PartialReport::parse_json(&partial.render_json(), path).unwrap();
        assert_eq!(back, partial);
    }

    #[test]
    fn vc_counts_the_router_cannot_build_are_corrupt() {
        let json = vc_partial(vec![nasty_outcome()]).render_json();
        let valid = "\"kind\":\"count\",\"count\":3,";
        assert!(json.contains(valid));
        for count in [0, 5, 9] {
            let edited = json.replacen(valid, &format!("\"kind\":\"count\",\"count\":{count},"), 1);
            assert!(
                matches!(
                    PartialReport::parse_json(&edited, Path::new("inline")),
                    Err(Error::CorruptCheckpoint { .. })
                ),
                "count {count}"
            );
        }
    }

    #[test]
    fn non_finite_tightness_is_corrupt() {
        let json = vc_partial(vec![nasty_outcome()]).render_json();
        let max_bits = format!("\"max_bits\":{}", 1.0000000000000002f64.to_bits());
        assert!(json.contains(&max_bits));
        for ratio in [f64::NAN, f64::INFINITY] {
            let edited = json.replacen(&max_bits, &format!("\"max_bits\":{}", ratio.to_bits()), 1);
            assert!(matches!(
                PartialReport::parse_json(&edited, Path::new("inline")),
                Err(Error::CorruptCheckpoint { .. })
            ));
        }
    }

    #[test]
    fn decoded_counts_saturate_when_reports_merge() {
        let mut outcome = nasty_outcome();
        outcome.observed = LatencyStats::from_parts(u64::MAX, u64::MAX, 3, 17).unwrap();
        let json = vc_partial(vec![outcome.clone(), outcome]).render_json();
        let report = PartialReport::parse_json(&json, Path::new("inline"))
            .unwrap()
            .into_report();
        assert_eq!(report.observed().count, u64::MAX);
        assert!(report.render().contains(&format!("{} messages", u64::MAX)));
        assert!(report
            .render_json()
            .contains(&format!("\"count\": {}", u64::MAX)));
    }

    /// The exact checkpoint bytes of every campaign dimension, as digests of
    /// each shard's partial report and of the manifest [`Fleet::run_shard`]
    /// commits for it.  Any change to a bound, a verdict, a tightness ratio
    /// or the codec moves one of them; the fault row is the only guard of the
    /// degraded-from-start judgment path outside the campaign goldens.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        let pins: [(Campaign, [u64; 4]); 5] = [
            (
                Campaign::new(7, 25),
                [
                    0x4e4d_7dd8_4e35_1193,
                    0x832a_de81_44d1_1172,
                    0xb663_1048_4ad7_08bb,
                    0xf3f8_eac1_e9e9_4d0d,
                ],
            ),
            (
                Campaign::buffer_sweep(7, 25),
                [
                    0x2693_cb0c_bd1f_9900,
                    0x350b_df5f_8dc8_b763,
                    0x4b47_c82b_09fd_de41,
                    0xe113_88c9_7338_a5dc,
                ],
            ),
            (
                Campaign::vc_sweep(7, 25),
                [
                    0xb5ce_9d94_c2b1_0058,
                    0x31c9_d726_1800_0ea8,
                    0x17e7_f299_c01f_e9db,
                    0xeb7d_fdbf_e647_e0c3,
                ],
            ),
            (
                Campaign::bursty_sweep(7, 25),
                [
                    0xbafd_b641_4bf0_85eb,
                    0x9923_09ff_9512_7a81,
                    0xbd7d_2f61_4aca_0d73,
                    0xc7d6_9eea_dbf9_dced,
                ],
            ),
            (
                Campaign::fault_sweep(7, 25),
                [
                    0x09a7_af19_c8e0_52f9,
                    0x9b35_9af3_46b4_39c5,
                    0x1a9b_a3e5_db4e_a78f,
                    0x3262_e1a1_d60b_4cc0,
                ],
            ),
        ];
        for (campaign, [partial_0, partial_1, manifest_0, manifest_1]) in pins {
            let mut partials = Vec::new();
            let mut manifests = Vec::new();
            for shard in partition(campaign.scenarios, 2) {
                let json = PartialReport::compute(&campaign, shard)
                    .unwrap()
                    .render_json();
                let manifest = ShardManifest {
                    config_hash: config_hash(&campaign),
                    shard,
                    outcomes: shard.len(),
                    partial_digest: fnv1a(json.as_bytes()),
                };
                partials.push(fnv1a(json.as_bytes()));
                manifests.push(fnv1a(manifest.render_json().as_bytes()));
            }
            let tag = campaign.dimension.tag();
            assert_eq!(partials, [partial_0, partial_1], "{tag} partial digests");
            assert_eq!(
                manifests,
                [manifest_0, manifest_1],
                "{tag} manifest digests"
            );
        }
    }
}
