// Experiment A3 / S4 — distribution scaling (DESIGN.md §3).
//
// Scales the Wepic-shaped workload from 2 to 64 attendee peers: every
// attendee uploads one picture (published to the sigmod hub) and
// selects one neighbor (one delegation each). Reports rounds to
// convergence, messages, and bytes.
//
// Expected shape: rounds to convergence stay flat (the topology depth,
// not the peer count, drives stage count); messages and bytes grow
// linearly in the number of peers.

#include <benchmark/benchmark.h>

#include "base/string_util.h"
#include "runtime/system.h"

namespace wdl {
namespace {

Value I(int64_t v) { return Value::Int(v); }
Value S(const std::string& v) { return Value::String(v); }

void BM_WepicShapedScaling(benchmark::State& state) {
  int peers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    System system;
    Peer* hub = system.CreatePeer("hub");
    (void)hub->LoadProgramText(
        "collection ext pictures@hub(id: int, name: string, "
        "owner: string);");
    std::vector<Peer*> attendees;
    for (int i = 0; i < peers; ++i) {
      std::string name = "peer" + std::to_string(i);
      Peer* p = system.CreatePeer(name);
      attendees.push_back(p);
      (void)p->LoadProgramText(StrFormat(
          "collection ext pictures@%s(id: int, name: string, "
          "owner: string);"
          "collection ext selectedAttendee@%s(a: string);"
          "collection int attendeePictures@%s(id: int, name: string, "
          "owner: string);"
          "rule attendeePictures@%s($i, $n, $o) :- "
          "selectedAttendee@%s($a), pictures@$a($i, $n, $o);"
          "rule pictures@hub($i, $n, $o) :- pictures@%s($i, $n, $o);",
          name.c_str(), name.c_str(), name.c_str(), name.c_str(),
          name.c_str(), name.c_str()));
    }
    // Everyone trusts everyone (scaling, not ACL, is under test).
    for (Peer* p : attendees) {
      for (int i = 0; i < peers; ++i) {
        p->gate().TrustPeer("peer" + std::to_string(i));
      }
    }
    for (int i = 0; i < peers; ++i) {
      (void)attendees[i]->Insert(
          Fact("pictures", "peer" + std::to_string(i),
               {I(i), S("pic" + std::to_string(i)),
                S("peer" + std::to_string(i))}));
      (void)attendees[i]->Insert(
          Fact("selectedAttendee", "peer" + std::to_string(i),
               {S("peer" + std::to_string((i + 1) % peers))}));
    }
    state.ResumeTiming();

    Result<int> rounds = system.RunUntilQuiescent(10000);
    benchmark::DoNotOptimize(rounds);
    state.PauseTiming();
    const NetworkStats& stats = system.network().stats();
    state.counters["rounds"] = rounds.ok() ? *rounds : -1;
    state.counters["messages"] =
        static_cast<double>(stats.messages_submitted);
    state.counters["bytes"] = static_cast<double>(stats.bytes_sent);
    state.counters["hub_pictures"] = static_cast<double>(
        hub->engine().catalog().Get("pictures")->size());
    uint64_t delta_tuples = 0;
    for (const std::string& name : system.PeerNames()) {
      const PropagationCounters& pc =
          system.GetPeer(name)->engine().propagation_counters();
      delta_tuples += pc.delta_inserts_shipped + pc.delta_deletes_shipped;
    }
    state.counters["delta_tuples"] = static_cast<double>(delta_tuples);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_WepicShapedScaling)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Arg(64)->Unit(benchmark::kMillisecond);

// S4: dynamic membership — K audience peers join an already-converged
// conference and upload; time to re-converge.
void BM_AudienceJoin(benchmark::State& state) {
  int joiners = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    System system;
    Peer* hub = system.CreatePeer("hub");
    (void)hub->LoadProgramText(
        "collection ext pictures@hub(id: int, name: string, "
        "owner: string);"
        "collection ext attendees@hub(name: string);");
    (void)system.RunUntilQuiescent(10000);
    state.ResumeTiming();

    for (int i = 0; i < joiners; ++i) {
      std::string name = "guest" + std::to_string(i);
      Peer* p = system.CreatePeer(name);
      (void)p->LoadProgramText(StrFormat(
          "collection ext pictures@%s(id: int, name: string, "
          "owner: string);"
          "rule pictures@hub($i, $n, $o) :- pictures@%s($i, $n, $o);",
          name.c_str(), name.c_str()));
      (void)hub->Insert(Fact("attendees", "hub", {S(name)}));
      (void)p->Insert(Fact("pictures", name,
                           {I(i), S("phone.jpg"), S(name)}));
    }
    Result<int> rounds = system.RunUntilQuiescent(10000);
    benchmark::DoNotOptimize(rounds);
    state.counters["hub_pictures"] = static_cast<double>(
        hub->engine().catalog().Get("pictures")->size());
  }
}
BENCHMARK(BM_AudienceJoin)->Arg(1)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wdl

BENCHMARK_MAIN();
