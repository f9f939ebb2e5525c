#include "engine/ooo/ooo_engine.hpp"

#include "runtime/checkpoint.hpp"

namespace oosp {

void OooEngine::snapshot(CheckpointWriter& w) const {
  write_engine_guard(w, name(), query_.text());
  core_.snapshot(w);
}

void OooEngine::restore(CheckpointReader& r) {
  read_engine_guard(r, name(), query_.text());
  core_.restore(r);
}

}  // namespace oosp
