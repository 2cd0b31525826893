#include "core/logical_schema.h"

#include <algorithm>
#include <deque>
#include <string_view>

#include "common/string_util.h"

namespace pse {

namespace {

/// ASCII case folding, as ToLower and EqualsIgnoreCase do in the C locale.
unsigned char Fold(char c) {
  const auto u = static_cast<unsigned char>(c);
  return u >= 'A' && u <= 'Z' ? static_cast<unsigned char>(u + ('a' - 'A')) : u;
}

}  // namespace

size_t LogicalSchema::NameHash::operator()(std::string_view name) const {
  // FNV-1a over the folded bytes.
  uint64_t h = 14695981039346656037ull;
  for (char c : name) h = (h ^ Fold(c)) * 1099511628211ull;
  return static_cast<size_t>(h);
}

bool LogicalSchema::NameEq::operator()(std::string_view a, std::string_view b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (Fold(a[i]) != Fold(b[i])) return false;
  }
  return true;
}

EntityId LogicalSchema::AddEntity(const std::string& name, const std::string& key_attr_name,
                                  TypeId key_type, uint32_t key_width) {
  EntityId e = entities_.size();
  entities_.push_back(LogicalEntity{name, kInvalidId, {}});
  LogicalAttribute key;
  key.name = key_attr_name;
  key.type = key_type;
  key.avg_width = key_width;
  key.entity = e;
  key.is_key = true;
  AttrId a = attrs_.size();
  attrs_.push_back(std::move(key));
  entities_[e].key = a;
  entities_[e].attributes.push_back(a);
  // A key may repeat an earlier attribute's name; the earlier one keeps it.
  attr_index_.emplace(key_attr_name, a);
  RebuildFkChains();
  return e;
}

Result<AttrId> LogicalSchema::AddAttribute(EntityId entity, const std::string& name, TypeId type,
                                           uint32_t avg_width, bool is_new) {
  if (entity >= entities_.size()) return Status::InvalidArgument("bad entity id");
  if (attr_index_.contains(name)) {
    return Status::AlreadyExists("attribute '" + name + "' already exists");
  }
  LogicalAttribute attr;
  attr.name = name;
  attr.type = type;
  attr.avg_width = avg_width;
  attr.entity = entity;
  attr.is_new = is_new;
  AttrId id = attrs_.size();
  attrs_.push_back(std::move(attr));
  entities_[entity].attributes.push_back(id);
  attr_index_.emplace(name, id);
  return id;
}

Result<AttrId> LogicalSchema::AddForeignKey(EntityId entity, const std::string& name,
                                            EntityId target) {
  if (target >= entities_.size()) return Status::InvalidArgument("bad target entity");
  PSE_ASSIGN_OR_RETURN(AttrId id, AddAttribute(entity, name, TypeId::kInt64, 0, false));
  attrs_[id].references = target;
  RebuildFkChains();
  return id;
}

Result<EntityId> LogicalSchema::EntityByName(const std::string& name) const {
  for (EntityId e = 0; e < entities_.size(); ++e) {
    if (EqualsIgnoreCase(entities_[e].name, name)) return e;
  }
  return Status::NotFound("entity '" + name + "' not found");
}

Result<AttrId> LogicalSchema::AttrByName(const std::string& name) const {
  auto it = attr_index_.find(name);
  if (it != attr_index_.end()) return it->second;
  return Status::NotFound("attribute '" + name + "' not found");
}

bool LogicalSchema::Reaches(EntityId from, EntityId to) const {
  return from == to || fk_chains_[from * entities_.size() + to].has_value();
}

Result<std::span<const AttrId>> LogicalSchema::FkPath(EntityId from, EntityId to) const {
  const std::optional<std::vector<AttrId>>& chain = fk_chains_[from * entities_.size() + to];
  if (!chain.has_value()) {
    return Status::NotFound("no FK path from " + entities_[from].name + " to " +
                            entities_[to].name);
  }
  return std::span<const AttrId>(*chain);
}

void LogicalSchema::RebuildFkChains() {
  const size_t n = entities_.size();
  fk_chains_.assign(n * n, std::nullopt);
  std::vector<AttrId> via(n);
  std::vector<EntityId> prev(n);
  std::vector<bool> seen(n);
  std::deque<EntityId> frontier;
  for (EntityId from = 0; from < n; ++from) {
    // BFS over FK edges in attribute-id order. An entity's parent is set
    // when the search first meets it, which is where a search for that one
    // target would stop, so each row holds the per-pair search's chains.
    std::fill(seen.begin(), seen.end(), false);
    seen[from] = true;
    frontier.assign(1, from);
    fk_chains_[from * n + from].emplace();
    while (!frontier.empty()) {
      EntityId cur = frontier.front();
      frontier.pop_front();
      for (AttrId a : entities_[cur].attributes) {
        const LogicalAttribute& attr = attrs_[a];
        if (!attr.references.has_value()) continue;
        EntityId next = *attr.references;
        if (seen[next]) continue;
        seen[next] = true;
        via[next] = a;
        prev[next] = cur;
        std::vector<AttrId>& chain = fk_chains_[from * n + next].emplace();
        for (EntityId e = next; e != from; e = prev[e]) chain.push_back(via[e]);
        std::reverse(chain.begin(), chain.end());
        frontier.push_back(next);
      }
    }
  }
}

Result<EntityId> LogicalSchema::CommonAnchor(const std::vector<EntityId>& entities) const {
  if (entities.empty()) return Status::InvalidArgument("empty entity set");
  for (EntityId cand : entities) {
    bool ok = true;
    for (EntityId other : entities) {
      if (!Reaches(cand, other)) {
        ok = false;
        break;
      }
    }
    if (ok) return cand;
  }
  return Status::NotFound("attribute group has no common anchor entity");
}

}  // namespace pse
