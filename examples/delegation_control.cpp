// The §4 "Illustration of the control of delegation" scenario and the
// Figure 3 program view: Julia's rule needs to install a residual rule
// at Jules' peer; Jules is shown the pending delegation, and his
// program only changes once he approves it.
//
// Run:  ./build/examples/delegation_control

#include <cstdio>

#include "wepic/wepic.h"

int main() {
  wdl::WepicApp app;
  if (!app.SetupConference().ok()) return 1;
  if (!app.AddAttendee("Jules").ok()) return 1;
  if (!app.AddAttendee("Julia").ok()) return 1;

  (void)app.UploadPicture("Jules", 5, "keynote.jpg", "bytes");

  // Julia writes a rule that reads Jules' pictures. Jules does not
  // trust Julia, so the delegation will sit in his approval queue.
  wdl::Status st = app.attendee("Julia")->LoadProgramText(R"(
    collection int julesPics@Julia(id: int, name: string, owner: string,
                                   data: blob);
    collection ext watch@Julia(who: string);
    fact watch@Julia("Jules");
    rule julesPics@Julia($i, $n, $o, $d) :-
        watch@Julia($w), pictures@$w($i, $n, $o, $d);
  )");
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  (void)app.Converge();

  std::printf("---- Jules' program view (Figure 3) ----\n%s\n",
              app.attendee("Jules")->RenderProgramView().c_str());
  std::printf("Julia sees %zu picture(s) before approval\n\n",
              app.attendee("Julia")
                  ->engine()
                  .catalog()
                  .Get("julesPics")
                  ->size());

  // Jules approves via the UI; here, via the API.
  auto pending = app.attendee("Jules")->gate().Pending();
  if (pending.empty()) {
    std::fprintf(stderr, "expected a pending delegation\n");
    return 1;
  }
  uint64_t key = pending.front()->Key();
  std::printf(">>> Jules approves delegation %llu from %s\n\n",
              static_cast<unsigned long long>(key),
              pending.front()->origin_peer.c_str());
  st = app.attendee("Jules")->ApproveDelegation(key);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  (void)app.Converge();

  std::printf("---- Jules' program after approval ----\n%s\n",
              app.attendee("Jules")->RenderProgramView().c_str());
  std::printf("Julia sees %zu picture(s) after approval\n",
              app.attendee("Julia")
                  ->engine()
                  .catalog()
                  .Get("julesPics")
                  ->size());

  std::printf("\naudit log at Jules:\n");
  for (const auto& entry : app.attendee("Jules")->gate().audit_log()) {
    std::printf("  [%s] from %s: key %llu\n",
                DecisionToString(entry.decision), entry.origin_peer.c_str(),
                static_cast<unsigned long long>(entry.delegation_key));
  }
  return 0;
}
