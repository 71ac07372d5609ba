//! Criterion benches for the interned-token model layer: tokenisation,
//! TF-IDF index build, postings-list retrieval vs the linear-scan oracle
//! (`LinearTfIdf`) over the same documents, and the symbol-keyed vs
//! string-keyed n-gram: per-stage means for regression hunting. CI's
//! "Model bench smoke" step fails when `model/query_postings` is slower
//! than twice `model/query_linear` (postings below 0.5x the oracle).

use criterion::{criterion_group, criterion_main, Criterion};
use dda_core::tokenize::{tokenize_lower, tokenize_syms};
use dda_slm::reference::{LinearTfIdf, StringNgram};
use dda_slm::{NgramModel, TfIdfIndex, PROGRESSIVE_ORDER};
use rand::SeedableRng;

/// Augmented training entries as retrieval documents, cycled to `target`.
fn corpus(target: usize) -> Vec<String> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(2024);
    let modules = dda_corpus::generate_corpus(8, &mut rng);
    let (data, _) = dda_core::pipeline::augment(
        &modules,
        &dda_core::pipeline::PipelineOptions::default(),
        &mut rng,
    );
    let base: Vec<String> = PROGRESSIVE_ORDER
        .iter()
        .flat_map(|kind| data.entries(*kind))
        .map(|e| format!("{}\n{}", e.instruct, e.input))
        .collect();
    (0..target).map(|i| base[i % base.len()].clone()).collect()
}

fn bench_tokenize(c: &mut Criterion) {
    let docs = corpus(64);
    c.bench_function("model/tokenize_syms", |b| {
        b.iter(|| {
            docs.iter()
                .map(|d| tokenize_syms(std::hint::black_box(d)).count())
                .sum::<usize>()
        })
    });
    c.bench_function("model/tokenize_lower", |b| {
        b.iter(|| {
            docs.iter()
                .map(|d| tokenize_lower(std::hint::black_box(d)).len())
                .sum::<usize>()
        })
    });
}

fn bench_retrieval(c: &mut Criterion) {
    let docs = corpus(512);
    c.bench_function("model/index_build", |b| {
        b.iter(|| {
            let mut idx = TfIdfIndex::new();
            for d in &docs {
                idx.add(d);
            }
            idx.finish();
            idx
        })
    });
    let mut idx = TfIdfIndex::new();
    for d in &docs {
        idx.add(d);
    }
    idx.finish();
    let queries: Vec<&str> = docs
        .iter()
        .step_by(16)
        .map(|d| d.lines().next().unwrap_or(""))
        .collect();
    c.bench_function("model/query_postings", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| idx.try_query(std::hint::black_box(q), 32).unwrap().len())
                .sum::<usize>()
        })
    });
    let mut linear = LinearTfIdf::new();
    for d in &docs {
        linear.add(d);
    }
    linear.finish();
    c.bench_function("model/query_linear", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| linear.query(std::hint::black_box(q), 32).len())
                .sum::<usize>()
        })
    });
}

fn bench_ngram(c: &mut Criterion) {
    let docs = corpus(128);
    let held: Vec<&str> = docs.iter().step_by(8).map(String::as_str).collect();
    c.bench_function("model/ngram_interned", |b| {
        b.iter(|| {
            let mut m = NgramModel::new(3);
            for d in &docs {
                m.train(std::hint::black_box(d));
            }
            m.loss(&held)
        })
    });
    c.bench_function("model/ngram_string", |b| {
        b.iter(|| {
            let mut m = StringNgram::new(3);
            for d in &docs {
                m.train(std::hint::black_box(d));
            }
            m.loss(&held)
        })
    });
}

criterion_group!(benches, bench_tokenize, bench_retrieval, bench_ngram);
criterion_main!(benches);
