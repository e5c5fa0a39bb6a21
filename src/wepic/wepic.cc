#include "wepic/wepic.h"

#include "base/string_util.h"
#include "parser/parser.h"
#include "wrappers/email_wrapper.h"
#include "wrappers/facebook_wrapper.h"

namespace wdl {

WepicApp::WepicApp(WepicOptions options)
    : options_(options), system_([&] {
        SystemOptions system;
        system.network_seed = options.network_seed;
        return system;
      }()) {}

std::string WepicApp::AttendeeProgramText(const std::string& name) {
  const char* n = name.c_str();
  std::string out;
  out += StrFormat(
      "collection ext persistent pictures@%s(id: int, name: string, "
      "owner: string, data: blob);\n", n);
  out += StrFormat(
      "collection ext selectedAttendee@%s(attendee: string);\n", n);
  out += StrFormat(
      "collection ext selectedPictures@%s(name: string, id: int, "
      "owner: string);\n", n);
  out += StrFormat("collection ext communicate@%s(protocol: string);\n", n);
  out += StrFormat("collection ext rate@%s(id: int, rating: int);\n", n);
  out += StrFormat(
      "collection ext comment@%s(id: int, author: string, text: string);\n",
      n);
  out += StrFormat("collection ext tag@%s(id: int, person: string);\n", n);
  out += StrFormat(
      "collection ext authorized@%s(service: string, id: int, "
      "owner: string);\n", n);
  out += StrFormat(
      "collection int attendeePictures@%s(id: int, name: string, "
      "owner: string, data: blob);\n", n);

  // The paper's selection rule (§3): delegation retrieves the pictures
  // of each highlighted attendee.
  out += StrFormat(
      "rule attendeePictures@%s($id, $name, $owner, $data) :- "
      "selectedAttendee@%s($attendee), "
      "pictures@$attendee($id, $name, $owner, $data);\n", n, n);

  // The paper's transfer rule (§3): route selected pictures to each
  // highlighted attendee over that attendee's preferred protocol.
  out += StrFormat(
      "rule $protocol@$attendee($attendee, $name, $id, $owner) :- "
      "selectedAttendee@%s($attendee), "
      "communicate@$attendee($protocol), "
      "selectedPictures@%s($name, $id, $owner);\n", n, n);

  // Publication to the conference peer (§4 "a photo uploaded by Émilien
  // into his local relation pictures@Émilien is instantly published to
  // pictures@sigmod").
  out += StrFormat(
      "rule pictures@sigmod($id, $name, $owner, $data) :- "
      "pictures@%s($id, $name, $owner, $data);\n", n);
  return out;
}

std::string WepicApp::SigmodProgramText() {
  std::string out;
  out +=
      "collection ext persistent pictures@sigmod(id: int, name: string, "
      "owner: string, data: blob);\n";
  out += "collection ext attendees@sigmod(name: string);\n";
  // Publication to the Facebook group, gated per owner (§4): the
  // authorized atom is delegated to each picture's owner.
  out +=
      "rule pictures@SigmodFB($id, $name, $owner, $data) :- "
      "pictures@sigmod($id, $name, $owner, $data), "
      "authorized@$owner(\"Facebook\", $id, $owner);\n";
  // Conversely, pictures appearing on the Facebook wall are retrieved
  // and published at the sigmod peer (whole-rule delegation to the
  // SigmodFB wrapper peer).
  out +=
      "rule pictures@sigmod($id, $name, $owner, $data) :- "
      "pictures@SigmodFB($id, $name, $owner, $data);\n";
  return out;
}

Status WepicApp::SetupConference() {
  if (conference_ready_) {
    return Status::FailedPrecondition("conference already set up");
  }
  facebook_.CreateGroup(kFacebookGroup);

  PeerOptions peer_options;
  peer_options.engine = options_.engine;

  Peer* sigmod_peer = system_.CreatePeer(kSigmodPeer, peer_options);
  WDL_RETURN_IF_ERROR(sigmod_peer->LoadProgramText(SigmodProgramText()));

  // The SigmodFB peer is the wrapper's face; it trusts the sigmod peer
  // so the retrieval rule's delegation installs unattended.
  Peer* fb_peer = system_.CreatePeer(kSigmodFBPeer, peer_options);
  fb_peer->gate().TrustPeer(kSigmodPeer);
  WDL_RETURN_IF_ERROR(system_.AttachWrapper(
      std::make_unique<FacebookGroupWrapper>(kSigmodFBPeer, &facebook_,
                                             kFacebookGroup)));
  conference_ready_ = true;
  return Status::OK();
}

Status WepicApp::AddAttendee(const std::string& name) {
  if (!conference_ready_) {
    return Status::FailedPrecondition("call SetupConference() first");
  }
  if (system_.GetPeer(name) != nullptr) {
    return Status::AlreadyExists("attendee " + name + " already exists");
  }
  PeerOptions peer_options;
  peer_options.engine = options_.engine;
  Peer* peer = system_.CreatePeer(name, peer_options);
  // "By default, all peers except the sigmod peer will be considered
  // untrusted." — everyone trusts sigmod, nobody else.
  peer->gate().TrustPeer(kSigmodPeer);
  WDL_RETURN_IF_ERROR(peer->LoadProgramText(AttendeeProgramText(name)));

  // Remember the selection rule id so the customization scenario can
  // replace it (it is the first rule of the attendee program).
  std::vector<const InstalledRule*> rules = peer->engine().rules();
  if (!rules.empty()) selection_rule_id_[name] = rules.front()->id;

  // Subscribe at the conference registry.
  WDL_RETURN_IF_ERROR(
      system_.GetPeer(kSigmodPeer)
          ->Insert(Fact("attendees", kSigmodPeer, {Value::String(name)}))
          .status());

  // Both demo users "are members of the SigmodFB group" and have email.
  facebook_.AddUser(name);
  WDL_RETURN_IF_ERROR(facebook_.JoinGroup(kFacebookGroup, name));
  WDL_RETURN_IF_ERROR(system_.AttachWrapper(std::make_unique<EmailWrapper>(
      name, &email_, name + "@example.org")));

  attendees_.push_back(name);
  return Status::OK();
}

Status WepicApp::InsertAt(const std::string& peer_name, const Fact& fact) {
  Peer* peer = system_.GetPeer(peer_name);
  if (peer == nullptr) {
    return Status::NotFound("no peer named " + peer_name);
  }
  return peer->Insert(fact).status();
}

Status WepicApp::UploadPicture(const std::string& attendee, int64_t id,
                               const std::string& picture_name,
                               const std::string& data) {
  return InsertAt(attendee,
                  Fact("pictures", attendee,
                       {Value::Int(id), Value::String(picture_name),
                        Value::String(attendee), Value::MakeBlob(data)}));
}

Status WepicApp::SelectAttendee(const std::string& who,
                                const std::string& selected) {
  return InsertAt(who, Fact("selectedAttendee", who,
                            {Value::String(selected)}));
}

Status WepicApp::DeselectAttendee(const std::string& who,
                                  const std::string& selected) {
  Peer* peer = system_.GetPeer(who);
  if (peer == nullptr) return Status::NotFound("no peer named " + who);
  return peer
      ->Remove(Fact("selectedAttendee", who, {Value::String(selected)}))
      .status();
}

Status WepicApp::SelectPicture(const std::string& who,
                               const std::string& picture_name, int64_t id,
                               const std::string& owner) {
  return InsertAt(who, Fact("selectedPictures", who,
                            {Value::String(picture_name), Value::Int(id),
                             Value::String(owner)}));
}

Status WepicApp::SetCommunicationProtocol(const std::string& attendee,
                                          const std::string& protocol) {
  return InsertAt(attendee,
                  Fact("communicate", attendee, {Value::String(protocol)}));
}

Status WepicApp::RatePicture(const std::string& attendee, int64_t id,
                             int rating) {
  return InsertAt(attendee, Fact("rate", attendee,
                                 {Value::Int(id), Value::Int(rating)}));
}

Status WepicApp::CommentPicture(const std::string& attendee, int64_t id,
                                const std::string& author,
                                const std::string& text) {
  return InsertAt(attendee,
                  Fact("comment", attendee,
                       {Value::Int(id), Value::String(author),
                        Value::String(text)}));
}

Status WepicApp::TagPicture(const std::string& attendee, int64_t id,
                            const std::string& person) {
  return InsertAt(attendee, Fact("tag", attendee,
                                 {Value::Int(id), Value::String(person)}));
}

Status WepicApp::AuthorizeFacebook(const std::string& attendee, int64_t id) {
  return InsertAt(attendee,
                  Fact("authorized", attendee,
                       {Value::String("Facebook"), Value::Int(id),
                        Value::String(attendee)}));
}

Result<uint64_t> WepicApp::InstallRatingFilter(const std::string& attendee,
                                               int min_rating) {
  Peer* peer = system_.GetPeer(attendee);
  if (peer == nullptr) return Status::NotFound("no peer named " + attendee);
  auto it = selection_rule_id_.find(attendee);
  if (it != selection_rule_id_.end()) {
    WDL_RETURN_IF_ERROR(peer->engine().RemoveRule(it->second));
    selection_rule_id_.erase(it);
  }
  // §4 "Customizing rules": only pictures whose owner rated them
  // `min_rating` appear in the frame.
  std::string rule_text = StrFormat(
      "attendeePictures@%s($id, $name, $owner, $data) :- "
      "selectedAttendee@%s($attendee), "
      "pictures@$attendee($id, $name, $owner, $data), "
      "rate@$owner($id, %d)",
      attendee.c_str(), attendee.c_str(), min_rating);
  WDL_ASSIGN_OR_RETURN(uint64_t id, peer->AddRuleText(rule_text));
  selection_rule_id_[attendee] = id;
  return id;
}

Result<int> WepicApp::Converge(int max_rounds) {
  return system_.RunUntilQuiescent(max_rounds);
}

std::string WepicApp::RenderAttendeePicturesFrame(
    const std::string& who) const {
  const Peer* peer = system_.GetPeer(who);
  if (peer == nullptr) return "(unknown peer " + who + ")\n";
  const Relation* rel = peer->engine().catalog().Get("attendeePictures");
  std::string out = "+-- Attendee pictures (" + who + ") --+\n";
  if (rel == nullptr || rel->empty()) {
    out += "|  (empty)\n";
  } else {
    for (const Tuple& t : rel->SortedTuples()) {
      // (id, name, owner, data) -> one line per picture, data elided.
      out += StrFormat("|  #%s  %-20s  by %s\n", t[0].ToString().c_str(),
                       t[1].is_string() ? t[1].AsString().c_str() : "?",
                       t[2].is_string() ? t[2].AsString().c_str() : "?");
    }
  }
  out += "+--------------------------------------+\n";
  return out;
}

}  // namespace wdl
