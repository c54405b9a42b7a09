#include "dns/auth_server.h"

#include "util/strings.h"

namespace lazyeye::dns {

AuthServer::AuthServer(simnet::Host& host, std::uint16_t port)
    : host_{host},
      port_{port},
      zones_{host.network().memory()},
      query_log_{host.network().memory()} {
  host_.udp_bind(port_, [this](const simnet::Packet& p) { on_query(p); });
}

AuthServer::~AuthServer() { host_.udp_unbind(port_); }

Zone& AuthServer::add_zone(DnsName origin) {
  zones_.push_back(std::make_unique<Zone>(std::move(origin),
                                          host_.network().memory()));
  return *zones_.back();
}

void AuthServer::on_query(const simnet::Packet& packet) {
  if (!DnsMessage::decode_into(packet.payload, *query_scratch_) ||
      query_scratch_->questions.empty()) {
    return;  // not a parsable query: ignore
  }
  const DnsMessage& query = *query_scratch_;
  DnsMessage& response = *response_scratch_;
  const Question& q = query.questions.front();

  query_log_.push_back(QueryLogEntry{host_.network().loop().now(),
                                     packet.family(), packet.src, packet.dst,
                                     q.name, q.type, query.header.id});

  build_response(query, response);
  const auto params = parse_test_params(q.name);
  SimTime delay = params ? params->delay_for(q.type) : SimTime{0};
  const simnet::Endpoint from = packet.dst;
  const simnet::Endpoint to = packet.src;

  // The fault layer's interposer, when set, may edit, delay, drop or corrupt
  // the response and add extra datagrams before it is sent.
  ResponseDirectives directives;
  if (interposer_) {
    interposer_(query, response, delay, directives);
    for (InterposedDatagram& extra : directives.extra) {
      send_response(from, to, simnet::Buffer::adopt(std::move(extra.wire)),
                    extra.delay);
    }
    if (directives.drop) return;
  }
  simnet::Buffer wire{&host_.network().buffer_pool()};
  response.encode_into(wire, *compressor_);
  if (directives.mutate_wire) directives.mutate_wire(wire.heap_storage());
  send_response(from, to, std::move(wire), delay);
}

void AuthServer::send_response(const simnet::Endpoint& from,
                               const simnet::Endpoint& to, simnet::Buffer wire,
                               SimTime delay) {
  if (delay.count() == 0) {
    host_.udp_send(from, to, std::move(wire));
    return;
  }
  host_.network().loop().schedule_after(
      delay, [this, from, to, wire = std::move(wire)]() mutable {
        host_.udp_send(from, to, std::move(wire));
      });
}

namespace {

/// Appends records to a response section by assigning over retained elements
/// (copy-assignment reuses name/rdata storage); finish() trims the excess.
/// Replaces clear()+push_back, which destroyed the recycled elements first.
class SectionWriter {
 public:
  explicit SectionWriter(std::vector<ResourceRecord>& out) : out_{out} {}
  void put(const ResourceRecord& rr) {
    if (n_ == out_.size()) {
      out_.push_back(rr);
    } else {
      out_[n_] = rr;
    }
    ++n_;
  }
  void finish() { out_.resize(n_); }

 private:
  std::vector<ResourceRecord>& out_;
  std::size_t n_ = 0;
};

}  // namespace

void AuthServer::build_response(const DnsMessage& query,
                                DnsMessage& response) {
  const Question& q = query.questions.front();

  // Reset the reused envelope: the query's id, RD bit and question.
  response.header = DnsHeader{};
  response.header.id = query.header.id;
  response.header.qr = true;
  response.header.rd = query.header.rd;
  response.questions = query.questions;
  SectionWriter answers{response.answers};
  SectionWriter authorities{response.authorities};
  SectionWriter additionals{response.additionals};
  const auto seal = [&] {
    answers.finish();
    authorities.finish();
    additionals.finish();
  };

  // Find the most specific zone containing the qname.
  const Zone* best = nullptr;
  for (const auto& zone : zones_) {
    if (!q.name.is_subdomain_of(zone->origin())) continue;
    if (best == nullptr ||
        zone->origin().label_count() > best->origin().label_count()) {
      best = zone.get();
    }
  }
  if (best == nullptr) {
    response.header.rcode = Rcode::kRefused;
    return seal();
  }

  response.header.aa = true;

  // Pointer-based zone lookup into a reused scratch: each record is copied
  // exactly once, straight into its response section, instead of through an
  // intermediate LookupResult vector per response.
  chase_scratch_ = q.name;
  for (int chase = 0; chase < 8; ++chase) {
    best->lookup_into(chase_scratch_, q.type, *lookup_scratch_);
    const Zone::LookupRefs& result = *lookup_scratch_;
    switch (result.kind) {
      case Zone::RcodeKind::kAnswer:
        for (const auto* rr : result.records) answers.put(*rr);
        return seal();
      case Zone::RcodeKind::kCname: {
        answers.put(*result.records.front());
        chase_scratch_ =
            std::get<CnameRdata>(result.records.front()->rdata).target;
        if (!chase_scratch_.is_subdomain_of(best->origin())) return seal();
        continue;
      }
      case Zone::RcodeKind::kDelegation:
        response.header.aa = false;
        for (const auto* rr : result.records) authorities.put(*rr);
        for (const auto* rr : result.additional) additionals.put(*rr);
        return seal();
      case Zone::RcodeKind::kNoData:
        if (result.soa) authorities.put(*result.soa);
        return seal();
      case Zone::RcodeKind::kNxDomain:
        response.header.rcode = Rcode::kNxDomain;
        if (result.soa) authorities.put(*result.soa);
        return seal();
      case Zone::RcodeKind::kNotInZone:
        response.header.rcode = Rcode::kRefused;
        return seal();
    }
  }
  // CNAME chain too long; respond with what we have.
  seal();
}

}  // namespace lazyeye::dns
