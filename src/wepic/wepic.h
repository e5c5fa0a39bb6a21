#ifndef WDL_WEPIC_WEPIC_H_
#define WDL_WEPIC_WEPIC_H_

#include <memory>
#include <string>
#include <vector>

#include "runtime/system.h"
#include "wrappers/email_service.h"
#include "wrappers/facebook_service.h"

namespace wdl {

/// Names fixed by the demonstration setup (§4, Figure 2).
inline constexpr char kSigmodPeer[] = "sigmod";
inline constexpr char kSigmodFBPeer[] = "SigmodFB";
inline constexpr char kFacebookGroup[] = "sigmod";

struct WepicOptions {
  uint64_t network_seed = 42;
  EngineOptions engine;  // applied to every peer
};

/// The Wepic conference picture manager of §3, as a library: it builds
/// the Figure 2 topology (attendee peers + the sigmod peer + Facebook
/// and email wrappers), loads the paper's rules from their surface
/// syntax, and exposes the user actions of the §3 feature list.
class WepicApp {
 public:
  explicit WepicApp(WepicOptions options = {});

  /// Creates the sigmod registry peer and the SigmodFB group peer with
  /// its wall wrapper. Must be called before adding attendees.
  Status SetupConference();

  /// Creates an attendee peer, loads the standard attendee program
  /// (pictures, selections, ratings, the attendeePictures rule and the
  /// publication/transfer rules), subscribes it at the sigmod peer,
  /// joins it to the Facebook group, and attaches its email wrapper.
  /// Every peer trusts sigmod ("all peers except the sigmod peer will
  /// be considered untrusted").
  Status AddAttendee(const std::string& name);

  // --- The user actions of §3 ----------------------------------------
  /// (1) Upload a picture from a file or a URL.
  Status UploadPicture(const std::string& attendee, int64_t id,
                       const std::string& picture_name,
                       const std::string& data);
  /// (2) View pictures provided by a particular attendee: highlight the
  /// attendee; the selection rule populates attendeePictures.
  Status SelectAttendee(const std::string& who, const std::string& selected);
  Status DeselectAttendee(const std::string& who,
                          const std::string& selected);
  /// (3) Transfer: mark pictures for sending and choose a protocol.
  Status SelectPicture(const std::string& who,
                       const std::string& picture_name, int64_t id,
                       const std::string& owner);
  Status SetCommunicationProtocol(const std::string& attendee,
                                  const std::string& protocol);
  /// (4) Annotate with ratings, comments, or name tags.
  Status RatePicture(const std::string& attendee, int64_t id, int rating);
  Status CommentPicture(const std::string& attendee, int64_t id,
                        const std::string& author, const std::string& text);
  Status TagPicture(const std::string& attendee, int64_t id,
                    const std::string& person);
  /// Authorizes publication of picture `id` to Facebook (§4).
  Status AuthorizeFacebook(const std::string& attendee, int64_t id);

  /// Replaces the attendeePictures selection rule with the rating-5
  /// filter variant (§4 "Customizing rules"). Returns the new rule id.
  Result<uint64_t> InstallRatingFilter(const std::string& attendee,
                                       int min_rating = 5);

  /// Runs the system to quiescence; returns rounds taken.
  Result<int> Converge(int max_rounds = 300);

  /// The "Attendee pictures" frame of Figure 1 for `who`.
  std::string RenderAttendeePicturesFrame(const std::string& who) const;

  System& system() { return system_; }
  FacebookService& facebook() { return facebook_; }
  EmailService& email() { return email_; }
  Peer* attendee(const std::string& name) { return system_.GetPeer(name); }
  Peer* sigmod() { return system_.GetPeer(kSigmodPeer); }
  const std::vector<std::string>& attendees() const { return attendees_; }

  /// The standard attendee program in WebdamLog surface syntax — what
  /// the demo's "program" tab shows before customization.
  static std::string AttendeeProgramText(const std::string& name);
  /// The sigmod peer's program (registry + Facebook publication rules).
  static std::string SigmodProgramText();

 private:
  Status InsertAt(const std::string& peer_name, const Fact& fact);

  WepicOptions options_;
  System system_;
  FacebookService facebook_;
  EmailService email_;
  std::vector<std::string> attendees_;
  // Rule id of the default attendeePictures rule per attendee, so
  // InstallRatingFilter can swap it out.
  std::map<std::string, uint64_t> selection_rule_id_;
  bool conference_ready_ = false;
};

}  // namespace wdl

#endif  // WDL_WEPIC_WEPIC_H_
