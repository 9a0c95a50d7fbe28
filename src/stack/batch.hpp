// A run of Messages.
//
// Layers handle one message at a time (Layer::down/up). A run exists only
// at the medium: Stack::send_batch collects the group multicasts its sends
// cause and hands them to Transport::multicast_run as one run, and the
// simulator's coalesced delivery hands a run to Stack::on_packet_run,
// which feeds each packet up the stack on its own. Layer::down_batch/
// up_batch and LayerContext's batch overloads take a MessageBatch and
// process it one message at a time, in order.
#pragma once

#include <vector>

#include "stack/message.hpp"

namespace msw {

using MessageBatch = std::vector<Message>;

}  // namespace msw
