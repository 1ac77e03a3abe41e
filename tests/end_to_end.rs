//! End-to-end integration: generators → query engine → estimates vs exact,
//! across skews, strategies, and aggregate types.

use rand::rngs::StdRng;
use rand::SeedableRng;
use skimmed_sketches::prelude::*;
use stream_model::gen::{CensusGenerator, DeleteMix, UniformGenerator, ZipfGenerator};
use stream_model::metrics::ratio_error;

fn zipf_pair(
    domain: Domain,
    z: f64,
    shift: u64,
    n: usize,
    seed: u64,
) -> (Vec<Update>, Vec<Update>, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let uf = ZipfGenerator::new(domain, z, 0).generate(&mut rng, n);
    let ug = ZipfGenerator::new(domain, z, shift).generate(&mut rng, n);
    let f = FrequencyVector::from_updates(domain, uf.iter().copied());
    let g = FrequencyVector::from_updates(domain, ug.iter().copied());
    let j = f.join(&g) as f64;
    (uf, ug, j)
}

#[test]
fn engine_answers_count_across_skews() {
    let domain = Domain::with_log2(12);
    for (z, shift, tol) in [(0.6, 20, 0.25), (1.0, 20, 0.2), (1.4, 20, 0.2)] {
        let (uf, ug, actual) = zipf_pair(domain, z, shift, 50_000, 42);
        let schema = SkimmedSchema::scanning(domain, 7, 256, 7);
        let mut engine = JoinQueryEngine::new(schema, Default::default());
        for u in &uf {
            engine.process(Side::Left, Op::Insert, Record::new(u.value));
        }
        for u in &ug {
            engine.process(Side::Right, Op::Insert, Record::new(u.value));
        }
        let ans = engine.answer(Aggregate::Count);
        let err = ratio_error(ans.value, actual);
        assert!(
            err < tol,
            "z={z}: err={err} est={} actual={actual}",
            ans.value
        );
    }
}

#[test]
fn dyadic_and_scan_strategies_agree_in_accuracy() {
    let domain = Domain::with_log2(12);
    let (uf, ug, actual) = zipf_pair(domain, 1.2, 50, 60_000, 5);
    let cfg = EstimatorConfig::default();
    let mut errs = Vec::new();
    for schema in [
        SkimmedSchema::scanning(domain, 7, 256, 3),
        SkimmedSchema::dyadic(domain, 7, 256, 3),
    ] {
        let mut sf = SkimmedSketch::new(schema.clone());
        let mut sg = SkimmedSketch::new(schema);
        for &u in &uf {
            sf.update(u);
        }
        for &u in &ug {
            sg.update(u);
        }
        let est = skimmed_sketch::estimate_join(&sf, &sg, &cfg);
        errs.push(ratio_error(est.estimate, actual));
    }
    for (i, e) in errs.iter().enumerate() {
        assert!(*e < 0.2, "strategy {i} err={e}");
    }
}

#[test]
fn census_workload_end_to_end() {
    let gen = CensusGenerator::new();
    let mut rng = StdRng::seed_from_u64(9);
    let recs = gen.generate(&mut rng, 40_000);
    let (fu, gu) = CensusGenerator::attribute_streams(&recs);
    let f = FrequencyVector::from_updates(gen.domain(), fu.iter().copied());
    let g = FrequencyVector::from_updates(gen.domain(), gu.iter().copied());
    let actual = f.join(&g) as f64;

    let schema = SkimmedSchema::scanning(gen.domain(), 7, 512, 2);
    let mut sf = SkimmedSketch::new(schema.clone());
    let mut sg = SkimmedSketch::new(schema);
    for u in fu {
        sf.update(u);
    }
    for u in gu {
        sg.update(u);
    }
    let est = skimmed_sketch::estimate_join(&sf, &sg, &Default::default());
    let err = ratio_error(est.estimate, actual);
    assert!(err < 0.1, "census err={err}");
}

#[test]
fn deletion_heavy_stream_stays_accurate() {
    let domain = Domain::with_log2(10);
    let mut rng = StdRng::seed_from_u64(11);
    let uni = UniformGenerator::new(domain);
    let inserts_f = ZipfGenerator::new(domain, 1.0, 0).generate(&mut rng, 30_000);
    let stream_f = DeleteMix::new(0.4).apply(&mut rng, inserts_f);
    let stream_g = uni.generate(&mut rng, 30_000);

    let f = FrequencyVector::from_updates(domain, stream_f.iter().copied());
    let g = FrequencyVector::from_updates(domain, stream_g.iter().copied());
    let actual = f.join(&g) as f64;

    let schema = SkimmedSchema::scanning(domain, 7, 256, 4);
    let mut sf = SkimmedSketch::new(schema.clone());
    let mut sg = SkimmedSketch::new(schema);
    for &u in &stream_f {
        sf.update(u);
    }
    for &u in &stream_g {
        sg.update(u);
    }
    let est = skimmed_sketch::estimate_join(&sf, &sg, &Default::default());
    let err = ratio_error(est.estimate, actual);
    assert!(err < 0.3, "err={err} est={} actual={actual}", est.estimate);
}

#[test]
fn sharded_ingest_feeds_estimation_identically() {
    let domain = Domain::with_log2(12);
    let (uf, ug, actual) = zipf_pair(domain, 1.1, 30, 40_000, 13);
    let schema = SkimmedSchema::scanning(domain, 5, 256, 8);
    // 4 workers over 1Ki-update chunks; bit-identical to sequential ingest.
    let sf = ingest_parallel(&uf, 4, 1024, || SkimmedSketch::new(schema.clone()));
    let sg = ingest_parallel(&ug, 4, 1024, || SkimmedSketch::new(schema.clone()));
    let est = skimmed_sketch::estimate_join(&sf, &sg, &Default::default());
    let err = ratio_error(est.estimate, actual);
    assert!(err < 0.2, "err={err}");
}

#[test]
fn self_join_matches_second_moment() {
    let domain = Domain::with_log2(12);
    let mut rng = StdRng::seed_from_u64(17);
    let updates = ZipfGenerator::new(domain, 1.3, 0).generate(&mut rng, 50_000);
    let fv = FrequencyVector::from_updates(domain, updates.iter().copied());
    let schema = SkimmedSchema::scanning(domain, 7, 256, 6);
    let mut sk = SkimmedSketch::new(schema);
    for &u in &updates {
        sk.update(u);
    }
    let est = skimmed_sketch::estimate_self_join(&sk, &Default::default());
    let err = ratio_error(est, fv.self_join() as f64);
    assert!(err < 0.1, "err={err}");
}
