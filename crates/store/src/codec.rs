//! (De)serialization of the workspace's artifacts — workload sets,
//! simulation and accuracy records — onto the [`crate::wire`] primitives.
//!
//! Every float travels by bit pattern, so a decoded artifact is
//! *bit-identical* to the one that was encoded — the property that lets a
//! warm disk cache reproduce a cold run's stdout byte for byte. Decoding
//! never panics on malformed bytes: every structural invariant (tags,
//! dimensions, ranges) is validated and surfaces as
//! [`StoreError::Corrupt`].

use crate::wire::{corrupt, Reader, StoreError, Writer};
use ola_energy::{ComparisonMode, EnergyBreakdown};
use ola_quant::accuracy::QuantAccuracy;
use ola_sim::policy::FirstLayerPolicy;
use ola_sim::workload::{LayerKind, LayerWorkload, Shape4Ser, WorkloadSet};
use ola_sim::{EventRecord, LayerRun, OutlierSelect, QuantPolicy, Utilization};

/// Upper bound on any single shape dimension or policy window accepted
/// from disk — far beyond anything the zoo produces, small enough that a
/// corrupt value fails validation instead of attempting an absurd
/// allocation.
const MAX_DIM: u64 = 1 << 24;

// --- quantization policy ---

/// Encodes a policy by exact bit pattern (round-trip identity).
pub fn encode_policy(w: &mut Writer, p: &QuantPolicy) {
    w.u8(match p.mode {
        ComparisonMode::Bits16 => 0,
        ComparisonMode::Bits8 => 1,
    });
    w.u32(p.low_bits);
    w.f64(p.outlier_ratio);
    w.u8(match p.first_layer {
        FirstLayerPolicy::RawActs => 0,
        FirstLayerPolicy::RawActsWideWeights => 1,
        FirstLayerPolicy::FineTuned4Bit => 2,
    });
    match p.select {
        OutlierSelect::MagnitudePercentile => w.u8(0),
        OutlierSelect::WindowedTopK { window } => {
            w.u8(1);
            w.u64(window as u64);
        }
        OutlierSelect::SensitivityWeighted { window } => {
            w.u8(2);
            w.u64(window as u64);
        }
    }
}

/// Decodes a policy written by [`encode_policy`].
pub fn decode_policy(r: &mut Reader<'_>) -> Result<QuantPolicy, StoreError> {
    let mode = match r.u8()? {
        0 => ComparisonMode::Bits16,
        1 => ComparisonMode::Bits8,
        other => return Err(corrupt(format!("unknown comparison mode {other}"))),
    };
    let low_bits = r.u32()?;
    let outlier_ratio = r.f64()?;
    let first_layer = match r.u8()? {
        0 => FirstLayerPolicy::RawActs,
        1 => FirstLayerPolicy::RawActsWideWeights,
        2 => FirstLayerPolicy::FineTuned4Bit,
        other => return Err(corrupt(format!("unknown first-layer policy {other}"))),
    };
    let select = match r.u8()? {
        0 => OutlierSelect::MagnitudePercentile,
        tag @ (1 | 2) => {
            let window = r.u64()?;
            if window == 0 || window > MAX_DIM {
                return Err(corrupt("policy window out of range"));
            }
            if tag == 1 {
                OutlierSelect::WindowedTopK {
                    window: window as usize,
                }
            } else {
                OutlierSelect::SensitivityWeighted {
                    window: window as usize,
                }
            }
        }
        other => return Err(corrupt(format!("unknown outlier-select tag {other}"))),
    };
    Ok(QuantPolicy {
        mode,
        low_bits,
        outlier_ratio,
        first_layer,
        select,
    })
}

// --- workload sets ---

fn encode_shape_ser(w: &mut Writer, s: &Shape4Ser) {
    w.u64(s.n as u64);
    w.u64(s.c as u64);
    w.u64(s.h as u64);
    w.u64(s.w as u64);
}

fn decode_shape_ser(r: &mut Reader<'_>) -> Result<Shape4Ser, StoreError> {
    let dims = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    if dims.iter().any(|&d| d > MAX_DIM) {
        return Err(corrupt("implausible workload shape"));
    }
    Ok(Shape4Ser {
        n: dims[0] as usize,
        c: dims[1] as usize,
        h: dims[2] as usize,
        w: dims[3] as usize,
    })
}

fn encode_layer(w: &mut Writer, l: &LayerWorkload) {
    w.string(&l.name);
    w.u64(l.index as u64);
    w.u8(match l.kind {
        LayerKind::Conv => 0,
        LayerKind::Fc => 1,
    });
    encode_shape_ser(w, &l.in_shape);
    encode_shape_ser(w, &l.out_shape);
    w.u64(l.kernel as u64);
    w.u64(l.macs);
    w.u64(l.weight_count);
    w.u32(l.weight_bits);
    w.u32(l.act_bits);
    w.f64(l.weight_zero_fraction);
    w.f64(l.act_zero_fraction);
    w.f64(l.weight_outlier_ratio);
    w.f64(l.act_outlier_nonzero_ratio);
    w.f64(l.act_effective_outlier_ratio);
    w.bytes(&l.chunk_nnz);
    w.bytes(&l.chunk_zero_quads);
    w.f64(l.wchunk_single_fraction);
    w.f64(l.wchunk_multi_fraction);
    w.f64(l.out_zero_fraction);
}

fn decode_layer(r: &mut Reader<'_>) -> Result<LayerWorkload, StoreError> {
    Ok(LayerWorkload {
        name: r.string()?,
        index: r.u64()? as usize,
        kind: match r.u8()? {
            0 => LayerKind::Conv,
            1 => LayerKind::Fc,
            other => return Err(corrupt(format!("unknown layer kind {other}"))),
        },
        in_shape: decode_shape_ser(r)?,
        out_shape: decode_shape_ser(r)?,
        kernel: r.u64()? as usize,
        macs: r.u64()?,
        weight_count: r.u64()?,
        weight_bits: r.u32()?,
        act_bits: r.u32()?,
        weight_zero_fraction: r.f64()?,
        act_zero_fraction: r.f64()?,
        weight_outlier_ratio: r.f64()?,
        act_outlier_nonzero_ratio: r.f64()?,
        act_effective_outlier_ratio: r.f64()?,
        chunk_nnz: r.bytes()?.to_vec(),
        chunk_zero_quads: r.bytes()?.to_vec(),
        wchunk_single_fraction: r.f64()?,
        wchunk_multi_fraction: r.f64()?,
        out_zero_fraction: r.f64()?,
    })
}

/// Encodes a full workload set (network, policy, per-layer workloads).
pub fn encode_workload_set(w: &mut Writer, ws: &WorkloadSet) {
    w.string(&ws.network);
    encode_policy(w, &ws.policy);
    w.len(ws.layers.len());
    for l in &ws.layers {
        encode_layer(w, l);
    }
}

/// Decodes a workload set written by [`encode_workload_set`].
pub fn decode_workload_set(r: &mut Reader<'_>) -> Result<WorkloadSet, StoreError> {
    let network = r.string()?;
    let policy = decode_policy(r)?;
    let n = r.len(1)?;
    let mut layers = Vec::with_capacity(n);
    for _ in 0..n {
        layers.push(decode_layer(r)?);
    }
    Ok(WorkloadSet {
        network,
        policy,
        layers,
    })
}

// --- simulation results ---

/// Upper bound on a persisted chunk-cycle histogram's length — the model
/// builds histograms indexed by cycles-per-chunk, which chunk statistics
/// bound far below this; a corrupt length fails here instead of allocating.
const MAX_HIST: usize = 1 << 20;

fn encode_utilization(w: &mut Writer, u: &Utilization) {
    w.u64(u.run_cycles);
    w.u64(u.skip_cycles);
    w.u64(u.idle_cycles);
}

fn decode_utilization(r: &mut Reader<'_>) -> Result<Utilization, StoreError> {
    Ok(Utilization {
        run_cycles: r.u64()?,
        skip_cycles: r.u64()?,
        idle_cycles: r.u64()?,
    })
}

/// Encodes a per-layer simulation result (the `SimCache` disk tier's
/// payload): floats by exact bit pattern, so a warm run's report is
/// byte-identical to the cold run that wrote the record.
pub fn encode_layer_run(w: &mut Writer, run: &LayerRun) {
    w.string(&run.name);
    w.u64(run.cycles);
    w.f64(run.energy.dram);
    w.f64(run.energy.buffer);
    w.f64(run.energy.local);
    w.f64(run.energy.logic);
    encode_utilization(w, &run.utilization);
    w.len(run.chunk_cycle_hist.len());
    for &c in &run.chunk_cycle_hist {
        w.u64(c);
    }
}

/// Decodes a layer result written by [`encode_layer_run`].
pub fn decode_layer_run(r: &mut Reader<'_>) -> Result<LayerRun, StoreError> {
    let name = r.string()?;
    let cycles = r.u64()?;
    let energy = EnergyBreakdown {
        dram: r.f64()?,
        buffer: r.f64()?,
        local: r.f64()?,
        logic: r.f64()?,
    };
    let utilization = decode_utilization(r)?;
    let n = r.len(8)?;
    if n > MAX_HIST {
        return Err(corrupt(format!("implausible histogram length {n}")));
    }
    let mut chunk_cycle_hist = Vec::with_capacity(n);
    for _ in 0..n {
        chunk_cycle_hist.push(r.u64()?);
    }
    Ok(LayerRun {
        name,
        cycles,
        energy,
        utilization,
        chunk_cycle_hist,
    })
}

/// Encodes an event-backend result record.
pub fn encode_event_record(w: &mut Writer, rec: &EventRecord) {
    w.u64(rec.cycles);
    encode_utilization(w, &rec.utilization);
    w.u64(rec.outlier_busy);
}

/// Decodes an event record written by [`encode_event_record`].
pub fn decode_event_record(r: &mut Reader<'_>) -> Result<EventRecord, StoreError> {
    Ok(EventRecord {
        cycles: r.u64()?,
        utilization: decode_utilization(r)?,
        outlier_busy: r.u64()?,
    })
}

/// Encodes a quantized-accuracy record: three `f64` bit patterns.
pub fn encode_eval_record(w: &mut Writer, acc: &QuantAccuracy) {
    w.f64(acc.top1);
    w.f64(acc.topk);
    w.f64(acc.realized_weight_ratio);
}

/// Decodes an accuracy record written by [`encode_eval_record`].
pub fn decode_eval_record(r: &mut Reader<'_>) -> Result<QuantAccuracy, StoreError> {
    Ok(QuantAccuracy {
        top1: r.f64()?,
        topk: r.f64()?,
        realized_weight_ratio: r.f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes `v`, decodes it back (consuming every byte) and checks that
    /// the decoded value re-encodes to the same bytes: bit-exact identity.
    fn round_trip<T>(
        v: &T,
        enc: fn(&mut Writer, &T),
        dec: fn(&mut Reader<'_>) -> Result<T, StoreError>,
    ) -> T {
        let encode = |v: &T| {
            let mut w = Writer::new();
            enc(&mut w, v);
            w.into_bytes()
        };
        let buf = encode(v);
        let mut r = Reader::new(&buf);
        let back = dec(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(encode(&back), buf, "re-encoding must be bit-identical");
        back
    }

    #[test]
    fn policy_codec_round_trips() {
        let mut windowed = QuantPolicy::olaccel16("vgg16");
        windowed.select = OutlierSelect::WindowedTopK { window: 16 };
        let mut weighted = QuantPolicy::olaccel16("alexnet");
        weighted.select = OutlierSelect::SensitivityWeighted { window: 8 };
        weighted.outlier_ratio = 0.0;
        for p in [
            QuantPolicy::olaccel16("alexnet"),
            QuantPolicy::olaccel8("resnet18"),
            windowed,
            weighted,
        ] {
            assert_eq!(round_trip(&p, encode_policy, decode_policy), p);
        }
    }

    #[test]
    fn layer_run_codec_round_trips_bits() {
        let run = LayerRun {
            name: "conv2".into(),
            cycles: 987_654,
            energy: EnergyBreakdown {
                dram: 1.5,
                buffer: -0.0,
                local: f64::NAN,
                logic: 3.25e-7,
            },
            utilization: Utilization {
                run_cycles: 10,
                skip_cycles: 20,
                idle_cycles: 30,
            },
            chunk_cycle_hist: vec![0, 7, 0, 3],
        };
        let back = round_trip(&run, encode_layer_run, decode_layer_run);
        assert_eq!(back.chunk_cycle_hist, run.chunk_cycle_hist);
    }

    #[test]
    fn eval_record_codec_round_trips_bits() {
        let acc = QuantAccuracy {
            top1: 0.91333333,
            topk: -0.0, // adversarial: bit pattern must survive
            realized_weight_ratio: f64::NAN,
        };
        let back = round_trip(&acc, encode_eval_record, decode_eval_record);
        assert_eq!(back.topk.to_bits(), acc.topk.to_bits());
    }

    #[test]
    fn event_record_codec_round_trips() {
        let rec = EventRecord {
            cycles: 42,
            utilization: Utilization {
                run_cycles: 30,
                skip_cycles: 5,
                idle_cycles: 7,
            },
            outlier_busy: 11,
        };
        assert_eq!(
            round_trip(&rec, encode_event_record, decode_event_record),
            rec
        );
    }

    #[test]
    fn corrupt_tags_are_errors_not_panics() {
        // A policy whose comparison-mode, first-layer or outlier-select tag
        // is bogus, and a workload layer whose kind tag is.
        let policy = |mode, first, select| {
            let mut w = Writer::new();
            w.u8(mode);
            w.u32(4);
            w.f64(0.03);
            w.u8(first);
            w.u8(select);
            w.into_bytes()
        };
        for buf in [policy(9, 0, 0), policy(0, 9, 0), policy(0, 0, 9)] {
            let mut r = Reader::new(&buf);
            assert!(matches!(decode_policy(&mut r), Err(StoreError::Corrupt(_))));
        }
        let mut w = Writer::new();
        w.string("conv1");
        w.u64(0);
        w.u8(9);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(matches!(decode_layer(&mut r), Err(StoreError::Corrupt(_))));
    }
}
