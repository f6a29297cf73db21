//! Content-addressed result cache with an in-memory front and an
//! on-disk store.
//!
//! A cache key is a stable 64-bit FNV-1a digest over the artefact
//! name, a code-version salt, and the canonical (compact) JSON of the
//! job's scenario inputs. Changing any of the three changes the digest
//! and therefore the on-disk file name, so stale entries simply miss —
//! no mtime heuristics. Entries that *do* resolve but are unreadable
//! (truncated file, hand-edited garbage, digest/salt mismatch inside
//! the envelope) are reported as [`CacheOutcome::Recovered`] with a
//! typed [`DarksilError`] diagnostic and the value is recomputed; a bad
//! cache can never fail a run.
//!
//! Envelopes additionally carry `payload_fnv`, the FNV-1a digest of the
//! canonical payload text, so a flipped bit inside an otherwise
//! well-formed entry is caught on load — and so the offline maintenance
//! pass ([`scan_dir`]) can verify entries without knowing the scenario
//! inputs or salt that keyed them.

use std::collections::HashMap;
use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use darksil_json::Json;
use darksil_robust::DarksilError;

/// Where drivers keep the on-disk store by default.
pub const DEFAULT_CACHE_DIR: &str = "results/.cache";

/// Envelope schema marker; bump when the on-disk layout changes.
/// v2 added `payload_fnv` (self-verifying payload digest); v1 entries
/// read as stale and are recomputed.
const SCHEMA: &str = "darksil-cache-v2";

pub use darksil_robust::fnv1a as stable_hash;

/// The content address of one cached result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    artefact: String,
    digest: u64,
}

impl CacheKey {
    /// Builds the key for `artefact` with the given scenario `inputs`
    /// and code-version `salt`.
    #[must_use]
    pub fn new(artefact: &str, inputs: &Json, salt: &str) -> Self {
        let mut material = String::new();
        material.push_str(artefact);
        material.push('\0');
        material.push_str(salt);
        material.push('\0');
        material.push_str(&inputs.compact());
        Self {
            artefact: artefact.to_string(),
            digest: stable_hash(material.as_bytes()),
        }
    }

    /// The artefact name this key belongs to.
    #[must_use]
    pub fn artefact(&self) -> &str {
        &self.artefact
    }

    /// The digest as a fixed-width hex string (JSON-safe: a raw u64
    /// does not survive an f64 round trip).
    #[must_use]
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest)
    }

    /// The on-disk file name: `<artefact>-<digest>.json`, with the
    /// artefact sanitised to a conservative character set.
    #[must_use]
    pub fn file_name(&self) -> String {
        let safe: String = self
            .artefact
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        format!("{safe}-{}.json", self.digest_hex())
    }
}

/// How a cache consultation went.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheOutcome {
    /// The entry was served from memory or disk.
    Hit,
    /// No entry existed; the value was (or must be) computed.
    Miss,
    /// An entry existed but was corrupt or stale; it was discarded and
    /// the value recomputed. Carries the diagnostic.
    Recovered(DarksilError),
}

impl CacheOutcome {
    /// Stable lowercase label for machine-readable reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Hit => "hit",
            Self::Miss => "miss",
            Self::Recovered(_) => "recovered",
        }
    }

    /// Whether the value was served without recomputation.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        matches!(self, Self::Hit)
    }
}

/// The cache: an in-memory map in front of a directory of JSON
/// envelopes. Safe to share across worker threads by reference.
pub struct ResultCache {
    dir: PathBuf,
    salt: String,
    memory: Mutex<HashMap<String, Json>>,
}

impl ResultCache {
    /// Opens (lazily — the directory is created on first store) a cache
    /// rooted at `dir` with the given code-version `salt`.
    pub fn open(dir: impl Into<PathBuf>, salt: impl Into<String>) -> Self {
        Self {
            dir: dir.into(),
            salt: salt.into(),
            memory: Mutex::new(HashMap::new()),
        }
    }

    /// The on-disk root.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Builds the content address for `artefact` under this cache's
    /// salt.
    #[must_use]
    pub fn key(&self, artefact: &str, inputs: &Json) -> CacheKey {
        CacheKey::new(artefact, inputs, &self.salt)
    }

    /// Looks the key up in memory, then on disk. Never fails: disk
    /// problems are folded into the returned [`CacheOutcome`].
    pub fn lookup(&self, key: &CacheKey) -> (Option<Json>, CacheOutcome) {
        let _span = darksil_obs::span("engine.cache.lookup");
        let name = key.file_name();
        if let Ok(memory) = self.memory.lock() {
            if let Some(payload) = memory.get(&name) {
                darksil_obs::counter("engine.cache.hit", 1);
                return (Some(payload.clone()), CacheOutcome::Hit);
            }
        }
        match self.load_from_disk(key, &name) {
            Ok(Some(payload)) => {
                if let Ok(mut memory) = self.memory.lock() {
                    memory.insert(name, payload.clone());
                }
                darksil_obs::counter("engine.cache.hit", 1);
                (Some(payload), CacheOutcome::Hit)
            }
            Ok(None) => {
                darksil_obs::counter("engine.cache.miss", 1);
                (None, CacheOutcome::Miss)
            }
            Err(diagnostic) => {
                darksil_obs::counter("engine.cache.recovered", 1);
                (None, CacheOutcome::Recovered(diagnostic))
            }
        }
    }

    /// Writes `payload` for `key` to memory and disk (atomically, via
    /// [`darksil_robust::write_atomic`]).
    ///
    /// # Errors
    ///
    /// Returns a [`DarksilError`] of class `io` when the store cannot
    /// be written; callers that only cache opportunistically may ignore
    /// it.
    pub fn store(&self, key: &CacheKey, payload: &Json) -> Result<(), DarksilError> {
        let _span = darksil_obs::span("engine.cache.store");
        darksil_obs::counter("engine.cache.store", 1);
        let name = key.file_name();
        let envelope = Json::Obj(vec![
            ("schema".to_string(), Json::Str(SCHEMA.to_string())),
            (
                "artefact".to_string(),
                Json::Str(key.artefact().to_string()),
            ),
            ("salt".to_string(), Json::Str(self.salt.clone())),
            ("digest".to_string(), Json::Str(key.digest_hex())),
            (
                "payload_fnv".to_string(),
                Json::Str(payload_fnv_hex(payload)),
            ),
            ("payload".to_string(), payload.clone()),
        ]);
        darksil_robust::write_atomic(&self.dir.join(&name), envelope.pretty().as_bytes())?;
        if let Ok(mut memory) = self.memory.lock() {
            memory.insert(name, payload.clone());
        }
        Ok(())
    }

    /// Serves `key` from the cache or computes and stores it.
    ///
    /// A corrupt or stale entry is discarded ([`CacheOutcome::Recovered`])
    /// and the value recomputed; a failure to *store* the fresh value is
    /// likewise folded into the outcome rather than failing the call.
    ///
    /// # Errors
    ///
    /// Only `compute`'s own error is propagated.
    pub fn get_or_compute(
        &self,
        key: &CacheKey,
        compute: impl FnOnce() -> Result<Json, DarksilError>,
    ) -> Result<(Json, CacheOutcome), DarksilError> {
        let (cached, outcome) = self.lookup(key);
        if let Some(payload) = cached {
            return Ok((payload, outcome));
        }
        let payload = compute()?;
        let outcome = match (self.store(key, &payload), outcome) {
            (Ok(()), outcome) => outcome,
            (Err(diag), CacheOutcome::Recovered(prior)) => {
                CacheOutcome::Recovered(diag.context(prior.to_string()))
            }
            (Err(diag), _) => CacheOutcome::Recovered(diag),
        };
        Ok((payload, outcome))
    }

    /// Reads and validates one envelope. `Ok(None)` means "no entry";
    /// `Err` means "entry present but unusable".
    fn load_from_disk(&self, key: &CacheKey, name: &str) -> Result<Option<Json>, DarksilError> {
        let path = self.dir.join(name);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(DarksilError::io(format!(
                    "cannot read cache entry {}: {e}",
                    path.display()
                )))
            }
        };
        let envelope = darksil_json::parse(&text).map_err(|e| {
            DarksilError::cache(format!("corrupt cache entry {}: {e}", path.display()))
        })?;
        let field = |name: &str| {
            envelope.get(name).and_then(|v| match v {
                Json::Str(s) => Some(s.as_str()),
                _ => None,
            })
        };
        if field("schema") != Some(SCHEMA)
            || field("salt") != Some(self.salt.as_str())
            || field("digest") != Some(key.digest_hex().as_str())
            || field("artefact") != Some(key.artefact())
        {
            return Err(DarksilError::cache(format!(
                "stale cache entry {} (schema/salt/digest mismatch)",
                path.display()
            )));
        }
        let payload = envelope.get("payload").cloned().ok_or_else(|| {
            DarksilError::cache(format!("cache entry {} has no payload", path.display()))
        })?;
        let expected = payload_fnv_hex(&payload);
        if field("payload_fnv") != Some(expected.as_str()) {
            return Err(DarksilError::cache(format!(
                "corrupt cache entry {} (payload digest mismatch)",
                path.display()
            )));
        }
        Ok(Some(payload))
    }
}

/// The FNV-1a digest of a payload's canonical (compact) text, as a
/// fixed-width hex string.
fn payload_fnv_hex(payload: &Json) -> String {
    format!("{:016x}", stable_hash(payload.compact().as_bytes()))
}

/// The condition of one on-disk entry as judged by [`scan_dir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryCondition {
    /// The envelope parses, carries the current schema, and its stored
    /// payload digest re-checks against the payload.
    Valid,
    /// The entry is unusable; carries the reason. Includes leftover
    /// `.tmp` files from interrupted writes and stale-schema entries.
    Corrupt(String),
}

/// One entry from a maintenance scan of a cache directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryReport {
    /// File name inside the cache directory.
    pub file_name: String,
    /// The artefact recorded in the envelope, when readable.
    pub artefact: Option<String>,
    /// On-disk size in bytes.
    pub bytes: u64,
    /// Verification verdict.
    pub condition: EntryCondition,
}

impl EntryReport {
    /// Whether this entry verified clean.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.condition == EntryCondition::Valid
    }
}

/// Scans a cache directory and verifies every entry *structurally*:
/// envelope parses, schema is current, required fields are present, and
/// the stored `payload_fnv` digest matches the payload. This is
/// salt-agnostic — it needs no knowledge of the scenario inputs that
/// keyed the entries, so it works on any cache directory, whichever
/// driver produced it. Leftover `.tmp` files from interrupted writes
/// are reported as corrupt. Reports come back sorted by file name.
///
/// A missing directory scans as empty (a cache that was never written
/// is clean, not broken).
///
/// # Errors
///
/// Returns a [`DarksilError`] of class `io` when the directory itself
/// cannot be listed.
pub fn scan_dir(dir: &Path) -> Result<Vec<EntryReport>, DarksilError> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(DarksilError::io(format!(
                "cannot list cache dir {}: {e}",
                dir.display()
            )))
        }
    };
    let mut reports = Vec::new();
    for entry in entries {
        let entry =
            entry.map_err(|e| DarksilError::io(format!("cannot list {}: {e}", dir.display())))?;
        let file_name = entry.file_name().to_string_lossy().into_owned();
        let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
        if file_name.ends_with(".json.tmp") {
            reports.push(EntryReport {
                file_name,
                artefact: None,
                bytes,
                condition: EntryCondition::Corrupt(
                    "leftover temp file from an interrupted write".to_string(),
                ),
            });
            continue;
        }
        if !file_name.ends_with(".json") {
            continue;
        }
        let (artefact, condition) = verify_entry(&dir.join(&file_name));
        reports.push(EntryReport {
            file_name,
            artefact,
            bytes,
            condition,
        });
    }
    reports.sort_by(|a, b| a.file_name.cmp(&b.file_name));
    Ok(reports)
}

/// Deletes the corrupt entries named in `reports` from `dir`, returning
/// how many were removed.
///
/// # Errors
///
/// Returns a [`DarksilError`] of class `io` on the first failed delete.
pub fn evict_corrupt(dir: &Path, reports: &[EntryReport]) -> Result<usize, DarksilError> {
    let mut removed = 0;
    for report in reports.iter().filter(|r| !r.is_valid()) {
        let path = dir.join(&report.file_name);
        fs::remove_file(&path)
            .map_err(|e| DarksilError::io(format!("cannot remove {}: {e}", path.display())))?;
        removed += 1;
    }
    Ok(removed)
}

/// Deletes every cache entry (valid or not, including `.tmp` leftovers)
/// from `dir`, returning how many files were removed. The directory
/// itself and any unrelated files are left alone; a missing directory
/// clears zero entries.
///
/// # Errors
///
/// Returns a [`DarksilError`] of class `io` when listing or deleting
/// fails.
pub fn clear_dir(dir: &Path) -> Result<usize, DarksilError> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(0),
        Err(e) => {
            return Err(DarksilError::io(format!(
                "cannot list cache dir {}: {e}",
                dir.display()
            )))
        }
    };
    let mut removed = 0;
    for entry in entries {
        let entry =
            entry.map_err(|e| DarksilError::io(format!("cannot list {}: {e}", dir.display())))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.ends_with(".json") || name.ends_with(".json.tmp")) {
            continue;
        }
        let path = entry.path();
        fs::remove_file(&path)
            .map_err(|e| DarksilError::io(format!("cannot remove {}: {e}", path.display())))?;
        removed += 1;
    }
    Ok(removed)
}

/// Structural verification of one envelope file.
fn verify_entry(path: &Path) -> (Option<String>, EntryCondition) {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return (None, EntryCondition::Corrupt(format!("unreadable: {e}"))),
    };
    let envelope = match darksil_json::parse(&text) {
        Ok(envelope) => envelope,
        Err(e) => return (None, EntryCondition::Corrupt(format!("invalid JSON: {e}"))),
    };
    let field = |name: &str| {
        envelope.get(name).and_then(|v| match v {
            Json::Str(s) => Some(s.to_string()),
            _ => None,
        })
    };
    let artefact = field("artefact");
    match field("schema") {
        Some(schema) if schema == SCHEMA => {}
        Some(schema) => {
            return (
                artefact,
                EntryCondition::Corrupt(format!("stale schema {schema}, expected {SCHEMA}")),
            )
        }
        None => {
            return (
                artefact,
                EntryCondition::Corrupt("no schema field".to_string()),
            )
        }
    }
    if field("salt").is_none() || field("digest").is_none() || artefact.is_none() {
        return (
            artefact,
            EntryCondition::Corrupt("missing envelope fields".to_string()),
        );
    }
    let Some(payload) = envelope.get("payload") else {
        return (artefact, EntryCondition::Corrupt("no payload".to_string()));
    };
    let expected = payload_fnv_hex(payload);
    if field("payload_fnv").as_deref() != Some(expected.as_str()) {
        return (
            artefact,
            EntryCondition::Corrupt("payload digest mismatch".to_string()),
        );
    }
    (artefact, EntryCondition::Valid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_and_sensitive_to_every_component() {
        let inputs = Json::Obj(vec![("fidelity".into(), Json::Str("quick".into()))]);
        let a = CacheKey::new("fig5", &inputs, "v1");
        let b = CacheKey::new("fig5", &inputs, "v1");
        assert_eq!(a, b);
        assert_ne!(a, CacheKey::new("fig6", &inputs, "v1"));
        assert_ne!(a, CacheKey::new("fig5", &inputs, "v2"));
        let other = Json::Obj(vec![("fidelity".into(), Json::Str("paper".into()))]);
        assert_ne!(a, CacheKey::new("fig5", &other, "v1"));
    }

    #[test]
    fn file_names_are_sanitised() {
        let key = CacheKey::new("weird/../name", &Json::Null, "v1");
        let name = key.file_name();
        assert!(!name.contains('/'), "{name}");
        assert!(name.ends_with(".json"), "{name}");
    }
}
