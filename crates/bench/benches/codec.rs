//! Criterion bench: wire codecs — SHA-1, the DAT message codec and the UDP
//! frame codec.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dat_chord::{codec, sha1, ChordMsg, Id, NodeAddr, NodeRef};
use dat_core::{AggPartial, DatMsg};
use std::hint::black_box;

fn nr(id: u64) -> NodeRef {
    NodeRef::new(Id(id), NodeAddr(id))
}

fn bench_sha1(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha1");
    for size in [64usize, 1024, 65536] {
        let data = vec![0xABu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("{size}B"), |b| {
            b.iter(|| sha1::sha1(black_box(&data)));
        });
    }
    g.finish();
}

fn bench_dat_codec(c: &mut Criterion) {
    let mut p = AggPartial::identity_with_histogram(0.0, 100.0, 32);
    for i in 0..100 {
        p.absorb(i as f64);
    }
    let msg = DatMsg::Update {
        key: Id(12345),
        epoch: 99,
        partial: p,
        sender: nr(7),
    };
    let bytes = msg.encode();
    let mut g = c.benchmark_group("dat_msg");
    g.bench_function("encode_update_hist32", |b| {
        b.iter(|| black_box(&msg).encode());
    });
    g.bench_function("decode_update_hist32", |b| {
        b.iter(|| DatMsg::decode(black_box(&bytes)).unwrap());
    });
    g.finish();
}

fn bench_udp_frame(c: &mut Criterion) {
    let msg = ChordMsg::FindSuccessor {
        req: 42,
        key: Id(u64::MAX / 3),
        origin: nr(9),
        hops: 5,
    };
    let frame = codec::encode(&msg);
    let mut g = c.benchmark_group("udp_frame");
    g.bench_function("encode_find_successor", |b| {
        b.iter(|| codec::encode(black_box(&msg)));
    });
    g.bench_function("decode_find_successor", |b| {
        b.iter(|| codec::decode(black_box(&frame)).unwrap());
    });
    let app = ChordMsg::App {
        proto: 1,
        from: nr(3),
        payload: vec![0u8; 1024].into(),
    };
    let app_frame = codec::encode(&app);
    g.throughput(Throughput::Bytes(app_frame.len() as u64));
    g.bench_function("roundtrip_app_1k", |b| {
        b.iter(|| codec::decode(&codec::encode(black_box(&app))).unwrap());
    });
    g.finish();
}

criterion_group!(benches, bench_sha1, bench_dat_codec, bench_udp_frame);
criterion_main!(benches);
