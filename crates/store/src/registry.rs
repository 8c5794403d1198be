//! The model registry: named, monotonically-versioned checkpoints with atomic publish.
//!
//! On-disk layout (one directory per model, one file per version):
//!
//! ```text
//! <root>/
//!   blenet/
//!     v000001.ckpt
//!     v000002.ckpt
//!   bmlp/
//!     v000001.ckpt
//! ```
//!
//! The directory listing *is* the index — no manifest file exists to go stale or to corrupt
//! independently of the data. Two properties make the registry safe to read while being
//! written:
//!
//! * **atomic publish** — a checkpoint is written to a hidden temporary file and *linked*
//!   into its final version name. Readers either see a complete, checksummed file or no file;
//!   never a partial one. The link step fails (rather than overwriting) if the version
//!   already exists, so concurrent publishers bump to the next number instead of clobbering
//!   each other;
//! * **monotonic versions** — versions are allocated as `max(existing) + 1`; published
//!   checkpoints are immutable (nothing in this API rewrites or deletes a version).
//!
//! A serving engine wires in through [`ModelRegistry::serve_source`], which loads a version
//! (or the latest) as a [`ModelSource`] ready for an `EngineSpec` or a hot-swap schedule.

use crate::checkpoint::Checkpoint;
use crate::error::StoreError;
use bnn_serve::{CheckpointReplica, ModelSource};
use std::fs;
use std::path::{Path, PathBuf};

/// A filesystem-backed registry of named, versioned checkpoints.
#[derive(Debug, Clone)]
pub struct ModelRegistry {
    root: PathBuf,
}

/// Versions are rendered zero-padded (`v000042.ckpt`) so lexicographic directory order is
/// version order for every version below one million.
fn version_file(version: u32) -> String {
    format!("v{version:06}.ckpt")
}

/// Accepts only the exact canonical form [`version_file`] writes (zero-padded), so the
/// versions the listing reports are always the versions [`ModelRegistry::load`] can find —
/// a hand-copied `v7.ckpt` is ignored rather than listed-but-unloadable.
fn parse_version(file_name: &str) -> Option<u32> {
    let digits = file_name.strip_prefix('v')?.strip_suffix(".ckpt")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let version: u32 = digits.parse().ok()?;
    (version_file(version) == file_name).then_some(version)
}

/// True for errors that mean "these bytes are not a valid checkpoint" — the corruption
/// class [`ModelRegistry::load_latest_valid`] falls back past — as opposed to environmental
/// failures (I/O, bad names) that trying an older version cannot fix.
fn is_corruption(error: &StoreError) -> bool {
    matches!(
        error,
        StoreError::BadMagic
            | StoreError::UnsupportedVersion { .. }
            | StoreError::Truncated { .. }
            | StoreError::TrailingBytes { .. }
            | StoreError::ChecksumMismatch { .. }
            | StoreError::Malformed { .. }
            | StoreError::Lfsr(_)
            | StoreError::Shape(_)
    )
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

impl ModelRegistry {
    /// Opens (creating if necessary) a registry rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the root cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<ModelRegistry, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| StoreError::io(&root, e))?;
        Ok(ModelRegistry { root })
    }

    /// The registry's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The path a given version of a model lives at (whether or not it exists yet).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidName`] for names the on-disk layout cannot hold.
    pub fn checkpoint_path(&self, name: &str, version: u32) -> Result<PathBuf, StoreError> {
        Ok(self.model_dir(name)?.join(version_file(version)))
    }

    fn model_dir(&self, name: &str) -> Result<PathBuf, StoreError> {
        if !valid_name(name) {
            return Err(StoreError::InvalidName { name: name.to_string() });
        }
        Ok(self.root.join(name))
    }

    /// All model names with at least one published version, sorted.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the root cannot be listed.
    pub fn models(&self) -> Result<Vec<String>, StoreError> {
        let mut names = Vec::new();
        let entries = fs::read_dir(&self.root).map_err(|e| StoreError::io(&self.root, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io(&self.root, e))?;
            let is_dir = entry.file_type().map_err(|e| StoreError::io(&self.root, e))?.is_dir();
            let name = entry.file_name().to_string_lossy().into_owned();
            // Stray files in the root (notes, backups) are not models; only directories
            // holding at least one version count.
            if is_dir && valid_name(&name) && !self.versions(&name)?.is_empty() {
                names.push(name);
            }
        }
        names.sort();
        Ok(names)
    }

    /// The published versions of a model, ascending (empty if the model is unknown).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidName`] / [`StoreError::Io`] on bad names or unreadable
    /// directories.
    pub fn versions(&self, name: &str) -> Result<Vec<u32>, StoreError> {
        let dir = self.model_dir(name)?;
        let entries = match fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(StoreError::io(&dir, e)),
        };
        let mut versions = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io(&dir, e))?;
            if let Some(version) = parse_version(&entry.file_name().to_string_lossy()) {
                versions.push(version);
            }
        }
        versions.sort_unstable();
        Ok(versions)
    }

    /// The newest published version of a model, if any.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelRegistry::versions`] failures.
    pub fn latest(&self, name: &str) -> Result<Option<u32>, StoreError> {
        Ok(self.versions(name)?.last().copied())
    }

    /// Publishes a checkpoint under `name`, returning the newly allocated version
    /// (`max(existing) + 1`, starting at 1).
    ///
    /// The publish is atomic: the bytes land in a hidden temporary file first and are then
    /// hard-linked into the version name, which fails — and retries with the next number —
    /// if a concurrent publisher claimed it. Readers never observe partial checkpoints.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidName`] / [`StoreError::Io`] on bad names or filesystem
    /// failures.
    pub fn publish(&self, name: &str, checkpoint: &Checkpoint) -> Result<u32, StoreError> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static PUBLISH_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = self.model_dir(name)?;
        fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;
        let tmp = dir.join(format!(
            ".tmp-publish-{}-{}",
            std::process::id(),
            PUBLISH_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, checkpoint.to_bytes()).map_err(|e| StoreError::io(&tmp, e))?;
        let result = self.link_next_version(name, &dir, &tmp);
        let _ = fs::remove_file(&tmp);
        result
    }

    fn link_next_version(&self, name: &str, dir: &Path, tmp: &Path) -> Result<u32, StoreError> {
        loop {
            let version = self.latest(name)?.unwrap_or(0) + 1;
            let target = dir.join(version_file(version));
            match fs::hard_link(tmp, &target) {
                Ok(()) => return Ok(version),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    // A concurrent publisher claimed this number; rescan and take the next.
                    continue;
                }
                Err(e) => return Err(StoreError::io(&target, e)),
            }
        }
    }

    /// Loads one version of a model (fully validated; see [`Checkpoint::from_bytes`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownVersion`] when the file does not exist; otherwise the usual
    /// decode errors.
    pub fn load(&self, name: &str, version: u32) -> Result<Checkpoint, StoreError> {
        let path = self.checkpoint_path(name, version)?;
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::UnknownVersion { name: name.to_string(), version });
            }
            Err(e) => return Err(StoreError::io(&path, e)),
        };
        Checkpoint::from_bytes(&bytes)
    }

    /// Loads the newest version of a model.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownModel`] when no version has been published.
    pub fn load_latest(&self, name: &str) -> Result<(u32, Checkpoint), StoreError> {
        let version = self
            .latest(name)?
            .ok_or_else(|| StoreError::UnknownModel { name: name.to_string() })?;
        Ok((version, self.load(name, version)?))
    }

    /// Loads the newest version of a model **that validates**, skipping corrupted or
    /// truncated files from the top down.
    ///
    /// This is the serving-path loader: a publisher crash, a torn disk, or a bad deploy can
    /// leave the *newest* version unreadable, and a server restarting into that state must
    /// come back up on the last good posterior rather than crash-loop. Returns the loaded
    /// version, its checkpoint, and the versions skipped (newest first) so callers can emit
    /// a typed fallback event. A version that vanishes between the listing and the read
    /// (a concurrent cleaner) is treated like corruption and skipped.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownModel`] when no version has been published at all;
    /// [`StoreError::NoValidVersion`] when every published version fails validation
    /// (nothing to fall back to); I/O errors other than not-found propagate — fallback
    /// cannot fix an unreadable disk.
    pub fn load_latest_valid(&self, name: &str) -> Result<(u32, Checkpoint, Vec<u32>), StoreError> {
        let versions = self.versions(name)?;
        if versions.is_empty() {
            return Err(StoreError::UnknownModel { name: name.to_string() });
        }
        let mut skipped = Vec::new();
        for &version in versions.iter().rev() {
            match self.load(name, version) {
                Ok(checkpoint) => return Ok((version, checkpoint, skipped)),
                Err(e) if is_corruption(&e) => skipped.push(version),
                Err(StoreError::UnknownVersion { .. }) => skipped.push(version),
                Err(e) => return Err(e),
            }
        }
        Err(StoreError::NoValidVersion { name: name.to_string(), tried: skipped })
    }

    /// Loads a version (or the latest, for `None`) as a serving [`ModelSource`], labelled
    /// `"<name>@v<version>"` — ready for an `EngineSpec` or a `VersionSwap`. `input_shape` is
    /// the request shape the served model expects.
    ///
    /// The `None` (latest) path goes through [`ModelRegistry::load_latest_valid`]: a corrupt
    /// newest version falls back to the last good one instead of failing the server. An
    /// explicit version is loaded exactly as asked — callers pinning a version want its
    /// corruption surfaced, not papered over.
    ///
    /// # Errors
    ///
    /// Propagates load errors; the replica validation itself cannot fail for checkpoints
    /// that decoded successfully.
    pub fn serve_source(
        &self,
        name: &str,
        version: Option<u32>,
        input_shape: Vec<usize>,
    ) -> Result<(u32, ModelSource), StoreError> {
        let (version, checkpoint) = match version {
            Some(v) => (v, self.load(name, v)?),
            None => {
                let (version, checkpoint, _skipped) = self.load_latest_valid(name)?;
                (version, checkpoint)
            }
        };
        let replica =
            CheckpointReplica::new(format!("{name}@v{version}"), checkpoint.network, input_shape)?;
        Ok((version, ModelSource::Checkpoint(replica)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_file_names_round_trip() {
        assert_eq!(version_file(1), "v000001.ckpt");
        assert_eq!(version_file(999_999), "v999999.ckpt");
        assert_eq!(parse_version("v000042.ckpt"), Some(42));
        assert_eq!(parse_version("v1000000.ckpt"), Some(1_000_000), "wide versions round-trip");
        assert_eq!(parse_version("v1.ckpt"), None, "non-canonical padding is not listed");
        assert_eq!(parse_version("v0000042.ckpt"), None, "over-padding is not listed");
        assert_eq!(parse_version(".tmp-publish-7"), None);
        assert_eq!(parse_version("v.ckpt"), None);
        assert_eq!(parse_version("vx2.ckpt"), None);
        assert_eq!(parse_version("v2.json"), None);
    }

    /// A fresh registry root in the system temp dir, cleaned before use so reruns start
    /// from nothing.
    fn scratch_root(label: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("bnn-store-registry-{label}"));
        let _ = fs::remove_dir_all(&root);
        root
    }

    fn posterior() -> Checkpoint {
        use bnn_train::variational::BayesConfig;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(91);
        let network = bnn_train::Network::bayes_mlp(4, &[3], 2, BayesConfig::default(), &mut rng);
        Checkpoint::posterior(&network)
    }

    #[test]
    fn corrupt_newest_version_falls_back_to_the_last_valid_one() {
        let registry = ModelRegistry::open(scratch_root("fallback")).unwrap();
        let checkpoint = posterior();
        let v1 = registry.publish("m", &checkpoint).unwrap();
        let v2 = registry.publish("m", &checkpoint).unwrap();
        let v3 = registry.publish("m", &checkpoint).unwrap();

        // Truncate v3 (torn write) and bit-flip v2's payload (at-rest corruption).
        let p3 = registry.checkpoint_path("m", v3).unwrap();
        let bytes = fs::read(&p3).unwrap();
        fs::write(&p3, &bytes[..bytes.len() / 2]).unwrap();
        let p2 = registry.checkpoint_path("m", v2).unwrap();
        let mut bytes = fs::read(&p2).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&p2, bytes).unwrap();

        let (version, loaded, skipped) = registry.load_latest_valid("m").unwrap();
        assert_eq!(version, v1);
        assert_eq!(skipped, vec![v3, v2], "skips are reported newest first");
        assert_eq!(loaded.digest(), checkpoint.digest());

        // The serving path inherits the fallback: latest == the last valid version.
        let (served, _) = registry.serve_source("m", None, vec![4]).unwrap();
        assert_eq!(served, v1);
        // But pinning the corrupt version explicitly surfaces its corruption.
        assert!(registry.serve_source("m", Some(v3), vec![4]).is_err());
    }

    #[test]
    fn all_versions_corrupt_is_a_typed_error_not_a_panic() {
        let registry = ModelRegistry::open(scratch_root("no-valid")).unwrap();
        let v1 = registry.publish("m", &posterior()).unwrap();
        let path = registry.checkpoint_path("m", v1).unwrap();
        fs::write(&path, b"garbage").unwrap();
        match registry.load_latest_valid("m") {
            Err(StoreError::NoValidVersion { name, tried }) => {
                assert_eq!(name, "m");
                assert_eq!(tried, vec![v1]);
            }
            other => panic!("expected NoValidVersion, got {other:?}"),
        }
        // And an unpublished model is still the distinct UnknownModel error.
        assert!(matches!(
            registry.load_latest_valid("ghost"),
            Err(StoreError::UnknownModel { .. })
        ));
    }

    #[test]
    fn name_validation_rejects_path_escapes() {
        for bad in ["", "a/b", "..", "a b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
        for good in ["blenet", "B-MLP_v2", "x", &"x".repeat(64)] {
            assert!(valid_name(good), "{good:?} must be accepted");
        }
    }
}
