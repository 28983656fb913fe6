#include "src/gdn/httpd.h"

#include "src/dso/protocols.h"
#include "src/util/log.h"
#include "src/util/strings.h"

namespace globe::gdn {

namespace {
constexpr char kPackagesPrefix[] = "/packages";
constexpr char kFilesSeparator[] = "/files/";

std::string HtmlEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}
}  // namespace

GdnHttpd::GdnHttpd(sim::Transport* transport, sim::NodeId node, std::string zone,
                   sim::Endpoint naming_authority, sim::Endpoint resolver,
                   gls::DirectoryRef leaf_directory,
                   const dso::ImplementationRepository* repository, HttpdOptions options)
    : transport_(transport),
      node_(node),
      gns_(transport, node, std::move(zone), naming_authority, resolver),
      runtime_(transport, node, std::move(leaf_directory), repository, &gns_),
      options_(options) {
  // Binds may be answered from directory subnode caches (TTL-bounded
  // staleness for fewer hops); a subnode without a cache ignores the flag.
  runtime_.gls()->set_allow_cached(true);
  transport_->RegisterPort(node_, sim::kPortHttp,
                           [this](const sim::TransportDelivery& d) { OnRequest(d); });
}

GdnHttpd::~GdnHttpd() { transport_->UnregisterPort(node_, sim::kPortHttp); }

void GdnHttpd::OnRequest(const sim::TransportDelivery& delivery) {
  if (delivery.transport_error) {
    return;  // a client hung up; nothing to serve
  }
  ++stats_.requests;
  auto request = http::HttpRequest::Parse(delivery.payload);
  if (!request.ok()) {
    ++stats_.errors;
    Reply(delivery.src,
          http::MakeErrorResponse(400, "Bad Request", "unparseable request"));
    return;
  }
  ServeRequest(*request, delivery.src);
}

void GdnHttpd::Reply(const sim::Endpoint& client, const http::HttpResponse& response) {
  transport_->Send({node_, sim::kPortHttp}, client, response.Serialize());
}

void GdnHttpd::ServeRequest(const http::HttpRequest& request,
                            const sim::Endpoint& client) {
  if (request.method != "GET") {
    ++stats_.errors;
    Reply(client, http::MakeErrorResponse(400, "Bad Request", "only GET is supported"));
    return;
  }
  auto decoded = http::UrlDecode(request.Path());
  if (!decoded.ok()) {
    ++stats_.errors;
    Reply(client, http::MakeErrorResponse(400, "Bad Request", "bad URL encoding"));
    return;
  }
  const std::string& path = *decoded;

  if (path == "/" || path.empty()) {
    ServeFrontPage(client);
    return;
  }
  if (path == "/search") {
    // q=... is the only recognized parameter.
    std::string query = request.Query();
    if (StartsWith(query, "q=")) {
      auto decoded_query = http::UrlDecode(query.substr(2));
      if (decoded_query.ok()) {
        ServeSearch(*decoded_query, client);
        return;
      }
    }
    ++stats_.errors;
    Reply(client, http::MakeErrorResponse(400, "Bad Request", "use /search?q=terms"));
    return;
  }
  if (!StartsWith(path, kPackagesPrefix)) {
    ++stats_.errors;
    Reply(client, http::MakeErrorResponse(404, "Not Found", "unknown path " + path));
    return;
  }

  std::string rest = path.substr(sizeof(kPackagesPrefix) - 1);
  size_t files_pos = rest.find(kFilesSeparator);
  if (files_pos == std::string::npos) {
    ServeListing(rest, client);
  } else {
    std::string globe_name = rest.substr(0, files_pos);
    std::string file_path = rest.substr(files_pos + sizeof(kFilesSeparator) - 1);
    ServeFile(globe_name, file_path, client);
  }
}

void GdnHttpd::ServeFrontPage(const sim::Endpoint& client) {
  std::string html =
      "<html><head><title>Globe Distribution Network</title></head><body>"
      "<h1>Globe Distribution Network</h1>"
      "<p>This GDN-enabled HTTPD is your access point to the GDN. Request "
      "/packages/&lt;package name&gt; for a package listing.</p>";
  html += "<p>Currently bound package DSOs on this access point: " +
          std::to_string(bound_.size()) + "</p></body></html>\n";
  http::HttpResponse response;
  response.SetHtml(std::move(html));
  Reply(client, response);
}

void GdnHttpd::WithPackage(const std::string& globe_name, UsePackage use) {
  auto it = bound_.find(globe_name);
  if (it != bound_.end()) {
    ++stats_.bind_reuses;
    use(it->second.get());
    return;
  }
  std::vector<UsePackage>& waiting = binds_in_flight_[globe_name];
  waiting.push_back(std::move(use));
  if (waiting.size() > 1) {
    return;
  }

  dso::BindOptions options;
  if (options_.bind_as_replica) {
    options.as_replica = gls::ReplicaRole::kCache;
    options.semantics_type = kPackageTypeId;
  }

  ++stats_.binds;
  runtime_.BindByName(
      globe_name, options,
      [this, globe_name](Result<std::unique_ptr<dso::BoundObject>> bound) {
        auto node = binds_in_flight_.extract(globe_name);
        std::vector<UsePackage> waiting = std::move(node.mapped());
        if (!bound.ok()) {
          for (UsePackage& use : waiting) {
            use(bound.status());
          }
          return;
        }
        dso::BoundObject* raw = bound->get();
        bound_[globe_name] = std::move(*bound);
        waiting.front()(raw);
        // The rest go through the binding table: the first request may already
        // have dropped the binding again.
        for (size_t i = 1; i < waiting.size(); ++i) {
          WithPackage(globe_name, std::move(waiting[i]));
        }
      });
}

void GdnHttpd::DropBinding(const std::string& globe_name,
                           std::function<void()> done) {
  auto it = bound_.find(globe_name);
  if (it == bound_.end()) {
    if (done) done();
    return;
  }
  auto pending =
      std::make_shared<std::unique_ptr<dso::BoundObject>>(std::move(it->second));
  bound_.erase(it);
  transport_->clock()->ScheduleAfter(0, [this, pending, done = std::move(done)] {
    runtime_.Unbind(std::move(*pending), [done = std::move(done)](Status s) {
      if (!s.ok()) {
        GLOG_WARN << "stale binding teardown failed: " << s;
      }
      if (done) done();
    });
  });
}

void GdnHttpd::ServeListing(const std::string& globe_name, const sim::Endpoint& client,
                            bool retried) {
  WithPackage(globe_name, [this, globe_name, client,
                           retried](Result<dso::BoundObject*> bound) {
    if (!bound.ok()) {
      ++stats_.errors;
      int code = bound.status().code() == StatusCode::kNotFound ? 404 : 502;
      Reply(client, http::MakeErrorResponse(code, std::string(http::ReasonPhrase(code)),
                                            bound.status().ToString()));
      return;
    }
    (*bound)->Call(pkg::kListContents, {}, [this, globe_name, client,
                                            retried](Result<pkg::Listing> listing) {
      if (!listing.ok()) {
        if (!retried) {
          // The bound representative may be a stale incarnation (its object
          // migrated protocols, or its master moved): drop it, rebind through
          // the GLS, and retry this request once.
          ++stats_.rebinds;
          DropBinding(globe_name, [this, globe_name, client] {
            ServeListing(globe_name, client, /*retried=*/true);
          });
          return;
        }
        ++stats_.errors;
        Reply(client,
              http::MakeErrorResponse(502, "Bad Gateway", listing.status().ToString()));
        return;
      }
      std::string html = "<html><head><title>" + HtmlEscape(globe_name) +
                         "</title></head><body><h1>Package " + HtmlEscape(globe_name) +
                         "</h1><table border=1><tr><th>File</th><th>Size</th>"
                         "<th>SHA-256</th></tr>";
      for (const FileInfo& file : listing->files) {
        std::string href =
            http::UrlEncode(std::string(kPackagesPrefix) + globe_name + kFilesSeparator +
                            file.path);
        html += "<tr><td><a href=\"" + href + "\">" + HtmlEscape(file.path) +
                "</a></td><td>" +
                std::to_string(file.size) + "</td><td><code>" + file.sha256_hex +
                "</code></td></tr>";
      }
      html += "</table></body></html>\n";
      ++stats_.listings_served;
      http::HttpResponse response;
      response.SetHtml(std::move(html));
      Reply(client, response);
    });
  });
}

void GdnHttpd::ServeFile(const std::string& globe_name, const std::string& file_path,
                         const sim::Endpoint& client, bool retried) {
  WithPackage(globe_name, [this, globe_name, file_path, client,
                           retried](Result<dso::BoundObject*> bound) {
    if (!bound.ok()) {
      ++stats_.errors;
      int code = bound.status().code() == StatusCode::kNotFound ? 404 : 502;
      Reply(client, http::MakeErrorResponse(code, std::string(http::ReasonPhrase(code)),
                                            bound.status().ToString()));
      return;
    }
    (*bound)->Call(pkg::kGetFileContents, {file_path},
                   [this, globe_name, file_path, client, retried](Result<Bytes> content) {
      if (!content.ok()) {
        // NotFound is an answer (the file is not in the package); anything
        // else smells like a stale binding — rebind and retry once.
        if (!retried && content.status().code() != StatusCode::kNotFound) {
          ++stats_.rebinds;
          DropBinding(globe_name, [this, globe_name, file_path, client] {
            ServeFile(globe_name, file_path, client, /*retried=*/true);
          });
          return;
        }
        ++stats_.errors;
        int code = content.status().code() == StatusCode::kNotFound ? 404 : 502;
        Reply(client, http::MakeErrorResponse(code, std::string(http::ReasonPhrase(code)),
                                              content.status().ToString()));
        return;
      }
      ++stats_.files_served;
      stats_.bytes_served += content->size();
      http::HttpResponse response;
      response.SetBody(std::move(*content), "application/octet-stream");
      Reply(client, response);
    });
  });
}

void GdnHttpd::ServeSearch(const std::string& query, const sim::Endpoint& client) {
  if (search_oid_.IsNil()) {
    ++stats_.errors;
    Reply(client, http::MakeErrorResponse(503, "Service Unavailable",
                                          "no search index configured"));
    return;
  }
  auto run_search = [this, query, client] {
    search_index_->Call(search::kSearch, {query}, [this, query,
                                                   client](Result<search::Matches> r) {
      if (!r.ok()) {
        ++stats_.errors;
        Reply(client, http::MakeErrorResponse(502, "Bad Gateway", r.status().ToString()));
        return;
      }
      std::string html =
          "<html><head><title>GDN search</title></head><body><h1>Search: " +
                         HtmlEscape(query) + "</h1><ul>";
      for (const SearchMatch& match : r->matches) {
        html += "<li><a href=\"" +
                http::UrlEncode(std::string(kPackagesPrefix) + match.globe_name) + "\">" +
                HtmlEscape(match.globe_name) + "</a> &mdash; " +
                HtmlEscape(match.description) + "</li>";
      }
      html += "</ul><p>" + std::to_string(r->matches.size()) +
              " match(es)</p></body></html>\n";
      http::HttpResponse response;
      response.SetHtml(std::move(html));
      Reply(client, response);
    });
  };

  if (search_index_ != nullptr) {
    run_search();
    return;
  }
  ++stats_.binds;
  runtime_.Bind(search_oid_, {},
                [this, run_search](Result<std::unique_ptr<dso::BoundObject>> bound) {
                  if (!bound.ok()) {
                    return;  // next request retries the bind
                  }
                  search_index_ = std::move(*bound);
                  run_search();
                });
}

Browser::Browser(sim::Transport* transport, sim::NodeId node)
    : transport_(transport), node_(node), alive_(std::make_shared<bool>(true)) {}

void Browser::Fetch(sim::NodeId httpd_node, std::string_view target, FetchCallback done,
                    sim::SimTime timeout) {
  uint16_t port = sim::AllocateEphemeralPort();
  http::HttpRequest request;
  request.method = "GET";
  request.target = std::string(target);
  request.headers["host"] = "node" + std::to_string(httpd_node);
  request.headers["user-agent"] = "globe-browser/1.0";

  // One ephemeral port per request (HTTP/1.0 style); torn down on completion. The
  // timeout event is erased the moment the response lands, so a drained simulator
  // pays the page's round-trip time, never the timeout.
  auto shared_done = std::make_shared<FetchCallback>(std::move(done));
  auto finished = std::make_shared<bool>(false);
  auto timeout_event = std::make_shared<sim::Clock::TimerId>(sim::Clock::kNoTimer);
  auto finish = [this, port, shared_done, finished,
                 timeout_event](Result<http::HttpResponse> result) {
    if (*finished) {
      return;
    }
    *finished = true;
    transport_->clock()->CancelTimer(*timeout_event);
    transport_->UnregisterPort(node_, port);
    (*shared_done)(std::move(result));
  };

  transport_->RegisterPort(node_, port,
                           [finish](const sim::TransportDelivery& delivery) {
                             if (delivery.transport_error) {
                               finish(Unavailable("connection to httpd lost"));
                               return;
                             }
                             finish(http::HttpResponse::Parse(delivery.payload));
                           });
  transport_->Send({node_, port}, {httpd_node, sim::kPortHttp}, request.Serialize());
  *timeout_event = transport_->clock()->ScheduleAfter(
      timeout, [finish, alive = std::weak_ptr<bool>(alive_)] {
        if (alive.lock()) {
          finish(Unavailable("HTTP request timed out"));
        }
      });
}

}  // namespace globe::gdn
