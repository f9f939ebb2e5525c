#include "event/event.hpp"

#include <ostream>

#include "common/contracts.hpp"

namespace oosp {

void Event::slot_out_of_range() {
  detail::throw_require("slot < attrs.size()", __FILE__, __LINE__, "attribute slot out of range");
}

std::ostream& operator<<(std::ostream& os, const Event& e) {
  os << "Event{type=" << e.type << ", id=" << e.id << ", ts=" << e.ts
     << ", arrival=" << e.arrival << ", attrs=[";
  for (std::size_t i = 0; i < e.attrs.size(); ++i) {
    if (i) os << ", ";
    os << e.attrs[i];
  }
  return os << "]}";
}

EventBuilder::EventBuilder(const TypeRegistry& registry, std::string_view type_name)
    : registry_(registry) {
  const TypeId id = registry.lookup(type_name);
  OOSP_REQUIRE(id != kInvalidType, "unknown event type: " + std::string(type_name));
  event_.type = id;
  const Schema& schema = registry.schema(id);
  event_.attrs.resize(schema.field_count());
  filled_.assign(schema.field_count(), false);
}

EventBuilder& EventBuilder::set(std::string_view field, Value v) {
  const Schema& schema = registry_.schema(event_.type);
  const std::size_t slot = schema.slot(field);
  OOSP_REQUIRE(slot != Schema::npos, "unknown field: " + std::string(field));
  OOSP_REQUIRE(v.type() == schema.field(slot).type,
               "type mismatch for field: " + std::string(field));
  event_.attrs[slot] = std::move(v);
  filled_[slot] = true;
  return *this;
}

Event EventBuilder::build() const {
  const Schema& schema = registry_.schema(event_.type);
  for (std::size_t i = 0; i < filled_.size(); ++i)
    OOSP_REQUIRE(filled_[i], "field not set: " + schema.field(i).name);
  return event_;
}

}  // namespace oosp
