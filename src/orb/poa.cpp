#include "orb/poa.hpp"

#include <cassert>

#include "orb/orb.hpp"

namespace aqm::orb {

Poa::Poa(OrbEndpoint& orb, std::string name, PoaPolicies policies)
    : orb_(orb), name_(std::move(name)), policies_(std::move(policies)) {
  assert(!name_.empty());
  if (policies_.lanes.empty()) {
    policies_.lanes.push_back(rt::ThreadpoolLane{0, 4, 256});
  }
  pool_ = std::make_unique<rt::ThreadPool>(orb_.cpu(), orb_.priority_mappings(),
                                           policies_.lanes);
}

ObjectRef Poa::activate_object(const std::string& object_id,
                               std::shared_ptr<Servant> servant) {
  assert(servant != nullptr);
  assert(!object_id.empty());
  assert(object_id.find('/') == std::string::npos && "object id must not contain '/'");
  servants_[object_id] = std::move(servant);

  ObjectRef ref;
  ref.node = orb_.node();
  ref.object_key = name_ + "/" + object_id;
  ref.priority_model = policies_.priority_model;
  ref.server_priority = policies_.server_priority;
  return ref;
}

void Poa::deactivate_object(const std::string& object_id) { servants_.erase(object_id); }

std::shared_ptr<Servant> Poa::find(std::string_view object_id) const {
  const auto it = servants_.find(object_id);
  return it == servants_.end() ? nullptr : it->second;
}

}  // namespace aqm::orb
