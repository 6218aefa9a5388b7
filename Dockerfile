# calciom-serve — the stateless scenario-execution HTTP service — in a
# container. All dependencies are vendored in-tree, so the build needs no
# network access beyond the base images.
#
#   Build:  docker build -t calciom-serve .
#   Run:    docker run --rm -p 7117:7117 calciom-serve
#   Stop:   docker stop <container>        # graceful: drains in-flight
#                                          # requests before exiting
#
# Every CALCIOM_* knob passes straight through the environment:
#
#   docker run --rm -p 7117:7117 \
#     -e CALCIOM_WORKERS=8 -e CALCIOM_MAX_CONNS=1024 calciom-serve

FROM rust:1-alpine AS build
RUN apk add --no-cache musl-dev
WORKDIR /src
COPY . .
RUN cargo build --release -p calciom-serve --bin calciom-serve

FROM alpine:3.20
COPY --from=build /src/target/release/calciom-serve /usr/local/bin/calciom-serve
COPY --from=build /src/crates/serve/entrypoint.sh /usr/local/bin/entrypoint.sh
RUN chmod +x /usr/local/bin/entrypoint.sh

# Bind all interfaces inside the container — the binary's 127.0.0.1
# default would be unreachable through the port mapping.
ENV CALCIOM_ADDR=0.0.0.0:7117
EXPOSE 7117

# The entrypoint bridges SIGTERM/SIGINT onto the server's stdin-based
# shutdown channel (see crates/serve/entrypoint.sh), so `docker stop`
# performs a graceful drain.
ENTRYPOINT ["/usr/local/bin/entrypoint.sh"]
