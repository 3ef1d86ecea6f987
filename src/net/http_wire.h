#ifndef FNPROXY_NET_HTTP_WIRE_H_
#define FNPROXY_NET_HTTP_WIRE_H_

#include <string>
#include <string_view>

#include "net/http.h"
#include "util/status.h"

namespace fnproxy::net {

/// HTTP/1.1 wire (de)serialization for the subset the function proxy uses:
/// GET requests with query strings, and responses with Content-Type and
/// Content-Length. Connections are one-shot ("Connection: close"), matching
/// a 2004 servlet deployment.

/// "GET /radial?ra=1 HTTP/1.1\r\nHost: ...\r\n\r\n".
std::string SerializeRequest(const HttpRequest& request,
                             std::string_view host = "localhost");

/// Parses a complete request message (headers + body per Content-Length).
/// A Content-Length header that repeats or is not one decimal number is a
/// ParseError, as is a body shorter than it declares; so for responses.
util::StatusOr<HttpRequest> ParseWireRequest(std::string_view text);

/// "HTTP/1.1 200 OK\r\nContent-Type: ...\r\nContent-Length: N\r\n\r\n<body>".
std::string SerializeResponse(const HttpResponse& response);

/// Parses a complete response message.
util::StatusOr<HttpResponse> ParseWireResponse(std::string_view text);

/// True once `text` holds a complete message: terminated header block plus
/// Content-Length bytes of body, or a terminated header block that does not
/// parse (more bytes cannot mend it). Used by socket readers to know when to
/// stop, so a malformed request gets its 400 without waiting for the peer
/// to close.
bool IsCompleteMessage(std::string_view text);

}  // namespace fnproxy::net

#endif  // FNPROXY_NET_HTTP_WIRE_H_
