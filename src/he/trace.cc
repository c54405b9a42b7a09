#include "he/trace.h"

#include <charconv>
#include <string_view>

namespace lazyeye::he {

namespace {

/// Hands each piece of `detail`'s sentence to `emit`, in order: the one
/// renderer behind text() and size().
template <typename Emit>
void render(const HeDetail& detail, Emit&& emit) {
  char text[simnet::Endpoint::kMaxText];
  const auto endpoint = [&] {
    return std::string_view{text, detail.endpoint.write(text)};
  };
  const auto count = [&] {
    return std::string_view{
        text, std::to_chars(text, text + sizeof text, detail.count).ptr};
  };
  switch (detail.type) {
    case HeEventType::kCacheHit:
      emit(std::string_view{text, detail.endpoint.addr.write(text)});
      return;
    case HeEventType::kDnsQuerySent:
      emit("AAAA then A");
      return;
    case HeEventType::kDnsResponse:
      emit(dns::rr_type_name(detail.rr_type));
      emit(": ");
      emit(count());
      emit(" records");
      return;
    case HeEventType::kDnsError:
      emit(dns::rr_type_name(detail.rr_type));
      emit(": ");
      emit(detail.error);
      return;
    case HeEventType::kResolutionDelayStarted:
      emit(format_duration(detail.duration));
      return;
    case HeEventType::kResolutionDelayExpired:
      return;
    case HeEventType::kAddressSelectionDone:
      emit(count());
      emit(" attempts planned");
      return;
    case HeEventType::kAttemptStarted:
    case HeEventType::kConnectionEstablished:
      emit(endpoint());
      return;
    case HeEventType::kAttemptFailed:
      emit(endpoint());
      emit(": ");
      emit(detail.error);
      return;
    case HeEventType::kFailed:
      emit(detail.error);
      return;
  }
}

}  // namespace

std::string HeDetail::text() const {
  std::string out;
  render(*this, [&](std::string_view piece) { out += piece; });
  return out;
}

std::size_t HeDetail::size() const {
  std::size_t n = 0;
  render(*this, [&](std::string_view piece) { n += piece.size(); });
  return n;
}

const char* he_event_type_name(HeEvent::Type type) {
  switch (type) {
    case HeEvent::Type::kCacheHit: return "cache-hit";
    case HeEvent::Type::kDnsQuerySent: return "dns-query";
    case HeEvent::Type::kDnsResponse: return "dns-response";
    case HeEvent::Type::kDnsError: return "dns-error";
    case HeEvent::Type::kResolutionDelayStarted: return "rd-start";
    case HeEvent::Type::kResolutionDelayExpired: return "rd-expired";
    case HeEvent::Type::kAddressSelectionDone: return "address-selection";
    case HeEvent::Type::kAttemptStarted: return "attempt-start";
    case HeEvent::Type::kAttemptFailed: return "attempt-failed";
    case HeEvent::Type::kConnectionEstablished: return "established";
    case HeEvent::Type::kFailed: return "failed";
  }
  return "?";
}

}  // namespace lazyeye::he
