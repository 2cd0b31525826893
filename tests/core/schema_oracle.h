// The logical and physical schemas' lookups as they were computed before the
// LogicalSchema indexed them, kept as the schema tests' oracle: FkPath as a
// breadth-first search over FK edges that stops at its target, AttrByName as
// a case-insensitive scan over every attribute, and PhysicalSchema::Validate
// over node-based maps and sets with a search per foreign attribute. The
// indexed lookups and the flat Validate must return what these return: the
// same chain, the same attribute id, and the same first error with the same
// text.
#pragma once

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/physical_schema.h"

namespace pse {
namespace testutil {

/// The FK attributes along the shortest chain from -> to, the first in
/// attribute-id order; empty when from == to, NotFound when unreachable.
inline Result<std::vector<AttrId>> OracleFkPath(const LogicalSchema& L, EntityId from,
                                                EntityId to) {
  if (from == to) return std::vector<AttrId>{};
  std::vector<AttrId> via(L.num_entities(), kInvalidId);
  std::vector<EntityId> prev(L.num_entities(), kInvalidId);
  std::vector<bool> seen(L.num_entities(), false);
  std::deque<EntityId> frontier{from};
  seen[from] = true;
  while (!frontier.empty()) {
    EntityId cur = frontier.front();
    frontier.pop_front();
    for (AttrId a : L.entity(cur).attributes) {
      const LogicalAttribute& attr = L.attr(a);
      if (!attr.references.has_value()) continue;
      EntityId next = *attr.references;
      if (seen[next]) continue;
      seen[next] = true;
      via[next] = a;
      prev[next] = cur;
      if (next == to) {
        std::vector<AttrId> path;
        for (EntityId e = to; e != from; e = prev[e]) path.push_back(via[e]);
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push_back(next);
    }
  }
  return Status::NotFound("no FK path from " + L.entity(from).name + " to " +
                          L.entity(to).name);
}

inline bool OracleReaches(const LogicalSchema& L, EntityId from, EntityId to) {
  return OracleFkPath(L, from, to).ok() || from == to;
}

/// The first attribute whose name equals `name` ignoring case.
inline Result<AttrId> OracleAttrByName(const LogicalSchema& L, const std::string& name) {
  for (AttrId a = 0; a < L.num_attributes(); ++a) {
    if (EqualsIgnoreCase(L.attr(a).name, name)) return a;
  }
  return Status::NotFound("attribute '" + name + "' not found");
}

/// PhysicalSchema::Validate's checks, in its order and with its messages.
inline Status OracleValidate(const PhysicalSchema& schema) {
  const LogicalSchema& L = *schema.logical();
  std::map<AttrId, int> nonkey_count;
  std::set<std::string> names;
  for (const auto& t : schema.tables()) {
    if (!names.insert(ToLower(t.name)).second) {
      return Status::Internal("duplicate table name '" + t.name + "'");
    }
    if (!t.Contains(L.entity(t.anchor).key)) {
      return Status::Internal("table '" + t.name + "' is missing its anchor key");
    }
    std::set<EntityId> nonkey_entities;
    for (AttrId a : t.attrs) {
      const LogicalAttribute& attr = L.attr(a);
      if (!attr.is_key) {
        ++nonkey_count[a];
        nonkey_entities.insert(attr.entity);
      }
      if (attr.entity != t.anchor) {
        auto path = OracleFkPath(L, t.anchor, attr.entity);
        if (!path.ok()) {
          return Status::Internal("table '" + t.name + "': attr '" + attr.name +
                                  "' of entity unreachable from anchor");
        }
        for (AttrId fk : *path) {
          if (!t.Contains(fk)) {
            return Status::Internal("table '" + t.name + "': missing chain FK '" +
                                    L.attr(fk).name + "' for attr '" + attr.name + "'");
          }
        }
      }
    }
    for (AttrId a : t.attrs) {
      const LogicalAttribute& attr = L.attr(a);
      if (!attr.is_key) continue;
      if (attr.entity == t.anchor) continue;
      if (nonkey_entities.count(attr.entity) == 0) {
        return Status::Internal("table '" + t.name + "': unjustified key attr '" + attr.name +
                                "'");
      }
    }
    for (EntityId e : nonkey_entities) {
      if (!t.Contains(L.entity(e).key)) {
        return Status::Internal("table '" + t.name + "': missing key of embedded entity '" +
                                L.entity(e).name + "'");
      }
    }
  }
  for (const auto& [a, count] : nonkey_count) {
    if (count > 1) {
      return Status::Internal("non-key attr '" + L.attr(a).name + "' stored in " +
                              std::to_string(count) + " tables");
    }
  }
  return Status::OK();
}

}  // namespace testutil
}  // namespace pse
