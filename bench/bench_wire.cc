// Experiment A5 — wire-format throughput (DESIGN.md §3).
//
// Every inter-peer message round-trips through the binary codec, so its
// cost is on every experiment's critical path. Measures encode and
// decode throughput for fact batches (the bulk traffic), derived sets,
// and rule delegations (the structured traffic).
//
// Expected shape: linear in payload size; decode within ~2x of encode.

#include <benchmark/benchmark.h>

#include "net/wire.h"
#include "parser/parser.h"

namespace wdl {
namespace {

Envelope MakeFactBatch(int facts, int payload_bytes) {
  Envelope e;
  e.from = "emilien";
  e.to = "sigmod";
  e.seq = 7;
  std::vector<Fact> batch;
  batch.reserve(facts);
  for (int i = 0; i < facts; ++i) {
    batch.push_back(Fact(
        "pictures", "sigmod",
        {Value::Int(i), Value::String("pic" + std::to_string(i) + ".jpg"),
         Value::String("emilien"),
         Value::MakeBlob(std::string(payload_bytes, 'x'))}));
  }
  e.message = Message::FactInserts(std::move(batch));
  return e;
}

void BM_EncodeFactBatch(benchmark::State& state) {
  Envelope e = MakeFactBatch(static_cast<int>(state.range(0)), 64);
  size_t bytes = 0;
  for (auto _ : state) {
    std::string encoded = EncodeEnvelope(e);
    bytes = encoded.size();
    benchmark::DoNotOptimize(encoded);
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) * state.iterations());
}
BENCHMARK(BM_EncodeFactBatch)->Arg(1)->Arg(64)->Arg(1024);

void BM_DecodeFactBatch(benchmark::State& state) {
  std::string bytes =
      EncodeEnvelope(MakeFactBatch(static_cast<int>(state.range(0)), 64));
  for (auto _ : state) {
    Result<Envelope> decoded = DecodeEnvelope(bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes.size()) *
                          state.iterations());
}
BENCHMARK(BM_DecodeFactBatch)->Arg(1)->Arg(64)->Arg(1024);

void BM_RoundTripDelegation(benchmark::State& state) {
  Delegation d;
  d.origin_peer = "Jules";
  d.target_peer = "Emilien";
  d.origin_rule_hash = 0x1234;
  d.rule = *ParseRule(
      "attendeePictures@Jules($id, $name, $owner, $data) :- "
      "pictures@Emilien($id, $name, $owner, $data), "
      "rate@Emilien($id, 5)");
  Envelope e;
  e.from = "Jules";
  e.to = "Emilien";
  e.message = Message::DelegationInstall(d);
  for (auto _ : state) {
    std::string bytes = EncodeEnvelope(e);
    Result<Envelope> back = DecodeEnvelope(bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_RoundTripDelegation);

// Blob-heavy payloads (picture data dominates Wepic traffic).
void BM_RoundTripBlobPayload(benchmark::State& state) {
  Envelope e = MakeFactBatch(1, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::string bytes = EncodeEnvelope(e);
    Result<Envelope> back = DecodeEnvelope(bytes);
    benchmark::DoNotOptimize(back);
    state.SetBytesProcessed(state.bytes_processed() +
                            static_cast<int64_t>(bytes.size()));
  }
}
BENCHMARK(BM_RoundTripBlobPayload)->Arg(1024)->Arg(65536)->Arg(1 << 20);

}  // namespace
}  // namespace wdl

BENCHMARK_MAIN();
