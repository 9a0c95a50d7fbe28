// The group type's former runtime name. perfbench/rt_workloads.cpp still
// names it; the alias goes with the next change to the benchmark.
#pragma once

#include "stack/group.hpp"

namespace msw {

using RtGroup = Group;

}  // namespace msw
