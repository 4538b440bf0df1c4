//! The on-disk artifact store: framed, checksummed, atomically-committed
//! files, one per record, addressed by `(record type, key, version)`.
//!
//! Every record type implements [`Artifact`] — its kind byte, filename
//! prefix, version fold and payload codec — and one generic
//! [`Tier`] impl serves them all to the caches' [`ola_tensor::memo::Stage`]s.
//! A record lives at `{prefix}-{key:016x}-v{version:016x}.olas`, where
//! `key` is the stage's content fingerprint and `version` the record
//! type's source fold, so no caller-supplied string ever reaches a path.
//!
//! File layout (little-endian throughout):
//!
//! ```text
//! magic        4 bytes  "OLAS"
//! format       u32      FORMAT_VERSION
//! kind         u8       Artifact::KIND
//! key          u64      the stage's content fingerprint
//! version      u64      Artifact::version() at write time
//! payload_len  u64
//! checksum     u64      FNV-1a over the payload bytes
//! payload      payload_len bytes
//! ```
//!
//! The key and version live both in the *filename* (so a stale version
//! simply never hits) and in the *header* (so a renamed or hand-copied
//! file still can't be served under the wrong key or kind). Writes go to a
//! temporary file in the same directory and commit with an atomic
//! `rename`, so a concurrent reader either sees the complete artifact or
//! no artifact — never a torn one.

use crate::codec::{
    decode_eval_record, decode_event_record, decode_layer_run, decode_workload_set,
    encode_eval_record, encode_event_record, encode_layer_run, encode_workload_set,
};
use crate::version::{code_version, eval_version, model_version, FORMAT_VERSION};
use crate::wire::{corrupt, Reader, StoreError, Writer};
use ola_quant::accuracy::QuantAccuracy;
use ola_sim::timing;
use ola_sim::workload::WorkloadSet;
use ola_sim::{EventRecord, LayerRun};
use ola_tensor::memo::{fnv1a64, Tier};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC: &[u8; 4] = b"OLAS";

/// Distinguishes concurrent writers' temporary files within one process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A record type the store persists.
pub trait Artifact: Sized + Send + Sync {
    /// The header kind byte, unique per record type.
    const KIND: u8;
    /// The filename prefix, unique per record type.
    const PREFIX: &'static str;
    /// The source fold a record must have been written under (see
    /// [`crate::version`]); any other version is stale.
    fn version() -> u64;
    /// Encodes the payload.
    fn encode(&self, w: &mut Writer);
    /// Decodes a payload written by [`Artifact::encode`]. Must never
    /// panic: malformed bytes surface as [`StoreError::Corrupt`].
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError>;
}

/// Implements [`Artifact`] for each listed record type over its codec
/// pair: `type => kind, prefix, version fold, encode, decode;`.
macro_rules! artifacts {
    ($($record:ty => $kind:literal, $prefix:literal, $version:path, $encode:path, $decode:path;)*) => {$(
        impl Artifact for $record {
            const KIND: u8 = $kind;
            const PREFIX: &'static str = $prefix;
            fn version() -> u64 {
                $version()
            }
            fn encode(&self, w: &mut Writer) {
                $encode(w, self)
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
                $decode(r)
            }
        }
    )*};
}

// Kind 1, the prepared network (`prep`), is implemented where that type
// lives, in the harness.
artifacts! {
    WorkloadSet => 2, "ws", code_version, encode_workload_set, decode_workload_set;
    LayerRun => 3, "simrun", model_version, encode_layer_run, decode_layer_run;
    EventRecord => 4, "simev", model_version, encode_event_record, decode_event_record;
    QuantAccuracy => 5, "eval", eval_version, encode_eval_record, decode_eval_record;
}

/// A directory of content-addressed artifacts.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    dir: PathBuf,
}

impl ArtifactStore {
    /// Opens (creating if necessary) the store rooted at `dir`.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        fs::create_dir_all(dir)?;
        Ok(ArtifactStore {
            dir: dir.to_path_buf(),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where the current-version record of type `V` under `key` lives.
    pub fn path<V: Artifact>(&self, key: u64) -> PathBuf {
        self.dir.join(format!(
            "{}-{key:016x}-v{:016x}.olas",
            V::PREFIX,
            V::version()
        ))
    }

    /// Frames `value` with the header and atomically commits it via a
    /// same-directory temporary file + `rename`.
    fn write<V: Artifact>(&self, key: u64, value: &V) -> Result<(), StoreError> {
        let mut payload = Writer::new();
        value.encode(&mut payload);
        let payload = payload.into_bytes();
        let mut header = Writer::new();
        header.raw(MAGIC);
        header.u32(FORMAT_VERSION);
        header.u8(V::KIND);
        header.u64(key);
        header.u64(V::version());
        header.len(payload.len());
        header.u64(fnv1a64(&payload));

        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let mut f = fs::File::create(&tmp)?;
        let written = f
            .write_all(&header.into_bytes())
            .and_then(|()| f.write_all(&payload))
            .and_then(|()| f.sync_all());
        drop(f);
        if let Err(e) = written.and_then(|()| fs::rename(&tmp, self.path::<V>(key))) {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(())
    }

    /// Reads the record of type `V` under `key`, verifying magic, format,
    /// kind, key, version and checksum before decoding. `Ok(None)` when
    /// no file exists (including one written under another version — the
    /// filename won't match); `Err(Corrupt)` when one exists but its bytes
    /// can't be trusted.
    fn read<V: Artifact>(&self, key: u64) -> Result<Option<V>, StoreError> {
        let bytes = match fs::read(self.path::<V>(key)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut r = Reader::new(&bytes);
        if r.take(4)? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let format = r.u32()?;
        if format != FORMAT_VERSION {
            return Err(corrupt(format!(
                "format version {format}, expected {FORMAT_VERSION}"
            )));
        }
        if r.u8()? != V::KIND || r.u64()? != key {
            return Err(corrupt("artifact key does not match its filename"));
        }
        if r.u64()? != V::version() {
            return Err(corrupt("artifact written by a different code version"));
        }
        let payload_len = r.len(1)?;
        let checksum = r.u64()?;
        let payload = r.take(payload_len)?;
        r.finish()?;
        if fnv1a64(payload) != checksum {
            return Err(corrupt("payload checksum mismatch"));
        }
        let mut r = Reader::new(payload);
        let value = V::decode(&mut r)?;
        r.finish()?;
        Ok(Some(value))
    }
}

/// The one disk tier of every cached stage. Loads are timed under
/// `Phase::Load`; a corrupt, stale or unreadable record warns on stderr
/// and misses, and a failed write warns — a broken store degrades to a
/// cold cache, never a failed run.
impl<V: Artifact> Tier<V> for ArtifactStore {
    fn load(&self, key: u64) -> Option<V> {
        match timing::timed(timing::Phase::Load, || self.read::<V>(key)) {
            Ok(found) => found,
            Err(e) => {
                eprintln!(
                    "warning: {} record {key:016x} in {} unreadable ({e}); recomputing",
                    V::PREFIX,
                    self.dir.display()
                );
                None
            }
        }
    }

    fn save(&self, key: u64, value: &V) {
        if let Err(e) = self.write(key, value) {
            eprintln!(
                "warning: failed to persist {} record {key:016x} to {}: {e}",
                V::PREFIX,
                self.dir.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_params, decode_tensor, encode_params, encode_tensor};
    use crate::test_dir;
    use ola_energy::EnergyBreakdown;
    use ola_nn::network::WeightStore;
    use ola_nn::Params;
    use ola_sim::workload::{LayerKind, LayerWorkload, Shape4Ser};
    use ola_sim::{QuantPolicy, Utilization};
    use ola_tensor::{Shape4, Tensor};

    // The payload parts of a prepared network, whose record type lives in
    // the harness.
    artifacts! {
        Params => 0xB1, "params", code_version, encode_params, decode_params;
        Tensor => 0xB2, "tensor", code_version, encode_tensor, decode_tensor;
    }

    /// An encoded payload: equal bytes mean bitwise-equal records.
    fn payload<V: Artifact>(v: &V) -> Vec<u8> {
        let mut w = Writer::new();
        v.encode(&mut w);
        w.into_bytes()
    }

    /// `v` reads back bit-identical under its key, and another key misses
    /// without touching it.
    fn round_trip<V: Artifact>(tag: &str, v: &V) {
        let store = ArtifactStore::open(&test_dir(tag)).unwrap();
        assert!(store.read::<V>(9).unwrap().is_none());
        store.write(9, v).unwrap();
        assert_eq!(payload(&store.read::<V>(9).unwrap().unwrap()), payload(v));
        assert!(store.read::<V>(10).unwrap().is_none());
        let _ = fs::remove_dir_all(store.dir());
    }

    /// Flips the last payload byte of `V`'s record under `key`: the direct
    /// read reports corruption, the tier warns and misses.
    fn corrupt_last_byte<V: Artifact>(store: &ArtifactStore, key: u64) {
        let path = store.path::<V>(key);
        let mut bytes = fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.read::<V>(key), Err(StoreError::Corrupt(_))));
        assert!(Tier::<V>::load(store, key).is_none());
    }

    fn sample_workloads() -> WorkloadSet {
        let shape = |c, h| Shape4Ser { n: 1, c, h, w: h };
        WorkloadSet {
            network: "alexnet".into(),
            policy: QuantPolicy::olaccel16("alexnet"),
            layers: vec![LayerWorkload {
                name: "conv1".into(),
                index: 0,
                kind: LayerKind::Conv,
                in_shape: shape(3, 8),
                out_shape: shape(16, 4),
                kernel: 3,
                macs: 12345,
                weight_count: 432,
                weight_bits: 4,
                act_bits: 16,
                weight_zero_fraction: 0.5,
                act_zero_fraction: 0.25,
                weight_outlier_ratio: 0.035,
                act_outlier_nonzero_ratio: 0.05,
                act_effective_outlier_ratio: 0.0375,
                chunk_nnz: vec![3, 0, 16],
                chunk_zero_quads: vec![1, 4, 0],
                wchunk_single_fraction: 0.3,
                wchunk_multi_fraction: 0.05,
                out_zero_fraction: 0.6,
            }],
        }
    }

    #[test]
    fn prepared_round_trip_and_missing() {
        let mut params = Params::sized(2);
        let w = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, -1.0, 0.5, 0.0]);
        params.set_weights(0, WeightStore::Dense(w));
        params.set_bias(0, vec![0.25]);
        round_trip("store-params", &params);
        round_trip(
            "store-acts",
            &Tensor::from_vec(Shape4::new(1, 1, 1, 3), vec![0.0, -0.0, f32::NAN]),
        );
    }

    #[test]
    fn workloads_round_trip_bitwise() {
        round_trip("store-ws", &sample_workloads());
    }

    #[test]
    fn sim_records_round_trip_through_the_trait() {
        let store = ArtifactStore::open(&test_dir("store-sim")).unwrap();
        let runs: &dyn Tier<LayerRun> = &store;
        let events: &dyn Tier<EventRecord> = &store;
        let utilization = Utilization {
            run_cycles: 4000,
            skip_cycles: 100,
            idle_cycles: 142,
        };
        let run = LayerRun {
            name: "conv3".into(),
            cycles: 4242,
            energy: EnergyBreakdown {
                dram: 1.0,
                buffer: 2.0,
                local: 3.0,
                logic: 4.0,
            },
            utilization,
            chunk_cycle_hist: vec![1, 0, 9],
        };
        let rec = EventRecord {
            cycles: 17,
            utilization,
            outlier_busy: 5,
        };
        assert!(runs.load(0xABCD).is_none());
        runs.save(0xABCD, &run);
        assert_eq!(payload(&runs.load(0xABCD).unwrap()), payload(&run));
        // A different fingerprint misses; same fingerprint under the other
        // record kind is a separate namespace.
        assert!(runs.load(0xABCE).is_none());
        assert!(events.load(0xABCD).is_none());
        events.save(0xABCD, &rec);
        assert_eq!(events.load(0xABCD).unwrap(), rec);
        corrupt_last_byte::<LayerRun>(&store, 0xABCD);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn eval_records_round_trip_through_the_trait() {
        let store = ArtifactStore::open(&test_dir("store-eval")).unwrap();
        let tier: &dyn Tier<QuantAccuracy> = &store;
        let acc = QuantAccuracy {
            top1: 0.87,
            topk: 0.99,
            realized_weight_ratio: 0.0305,
        };
        assert!(tier.load(0xE0A1).is_none());
        tier.save(0xE0A1, &acc);
        assert_eq!(payload(&tier.load(0xE0A1).unwrap()), payload(&acc));
        // A different fingerprint misses; the same fingerprint under a sim
        // record kind is a separate namespace.
        assert!(tier.load(0xE0A2).is_none());
        assert!(store.read::<LayerRun>(0xE0A1).unwrap().is_none());
        corrupt_last_byte::<QuantAccuracy>(&store, 0xE0A1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corruption_is_detected_not_panicked() {
        let store = ArtifactStore::open(&test_dir("store-corrupt")).unwrap();
        store.write(9, &sample_workloads()).unwrap();
        let path = store.path::<WorkloadSet>(9);
        let bytes = fs::read(&path).unwrap();
        corrupt_last_byte::<WorkloadSet>(&store, 9);
        // Truncated mid-header, or garbage magic.
        for bad in [&bytes[..7], b"NOPE"] {
            fs::write(&path, bad).unwrap();
            assert!(matches!(
                store.read::<WorkloadSet>(9),
                Err(StoreError::Corrupt(_))
            ));
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn renamed_artifact_fails_key_check() {
        let store = ArtifactStore::open(&test_dir("store-rename")).unwrap();
        store.write(9, &sample_workloads()).unwrap();
        let src = store.path::<WorkloadSet>(9);
        fs::rename(&src, store.path::<WorkloadSet>(8)).unwrap();
        assert!(matches!(
            store.read::<WorkloadSet>(8),
            Err(StoreError::Corrupt(_))
        ));
        // Copied to another record type's path, it fails the kind check.
        fs::copy(store.path::<WorkloadSet>(8), store.path::<QuantAccuracy>(8)).unwrap();
        assert!(matches!(
            store.read::<QuantAccuracy>(8),
            Err(StoreError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(store.dir());
    }
}
