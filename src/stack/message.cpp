#include "stack/message.hpp"

namespace msw {

Message Message::group(Payload payload) {
  Message m;
  m.data = std::move(payload);
  return m;
}

Message Message::p2p(NodeId to, Payload payload) {
  Message m;
  m.data = std::move(payload);
  m.point_to = to;
  return m;
}

void Message::push_header(FunctionRef<void(Writer&)> fill) {
  Bytes& out = data.begin_append();
  const std::size_t before = out.size();
  Writer w(out);
  fill(w);
  w.u32(static_cast<std::uint32_t>(out.size() - before));
  data.end_append();
}

void Message::pop_header(FunctionRef<void(Reader&)> read) {
  const std::span<const Byte> v = data.view();
  if (v.size() < 4) throw DecodeError("pop_header: buffer too small for length word");
  Reader len_reader(v.last(4));
  const std::uint32_t header_len = len_reader.u32();
  if (v.size() < 4 + static_cast<std::size_t>(header_len)) {
    throw DecodeError("pop_header: header length exceeds buffer");
  }
  const std::size_t header_begin = v.size() - 4 - header_len;
  Reader r(v.subspan(header_begin, header_len));
  read(r);
  r.expect_done();
  data.shrink(header_begin);
}

void AppHeader::push(Message& m, const AppHeader& h) {
  m.push_header([&](Writer& w) {
    w.reserve(13);
    w.u8(static_cast<std::uint8_t>(h.kind));
    w.u32(h.sender);
    w.u64(h.seq);
  });
}

AppHeader AppHeader::pop(Message& m) {
  AppHeader h;
  m.pop_header([&](Reader& r) {
    h.kind = static_cast<Kind>(r.u8());
    h.sender = r.u32();
    h.seq = r.u64();
  });
  return h;
}

}  // namespace msw
