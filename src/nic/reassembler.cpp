#include "nic/reassembler.hpp"

#include "common/error.hpp"

namespace comb::nic {

Reassembler::Entry* Reassembler::find(net::NodeId src, std::uint64_t msgId) {
  const auto it = open_.find(std::pair{src, msgId});
  return it == open_.end() ? nullptr : &it->second;
}

Reassembler::Entry& Reassembler::add(net::NodeId src,
                                     const transport::WirePayload& frag) {
  const auto [it, opened] = open_.try_emplace(std::pair{src, frag.msgId});
  Entry& e = it->second;
  if (opened) {
    static_cast<transport::WireFields&>(e.msg) = frag.fields();
    e.msg.fragIndex = 0;
    e.msg.data = nullptr;
    e.msg.srcNode = src;
  }
  COMB_ASSERT(e.fragsSeen < e.msg.fragCount, "fragment past message end");
  if (frag.fragIndex == 0) e.msg.data = frag.data;
  ++e.fragsSeen;
  return e;
}

Reassembler::Entry Reassembler::take(net::NodeId src, std::uint64_t msgId) {
  auto node = open_.extract(std::pair{src, msgId});
  COMB_ASSERT(!node.empty(), "no open message to take");
  return std::move(node.mapped());
}

}  // namespace comb::nic
