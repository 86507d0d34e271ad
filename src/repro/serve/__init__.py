"""repro.serve — the long-lived inference daemon.

A thin asyncio HTTP front end over the :mod:`repro.api` façade: one
process holds warm worker pools, the fingerprint-keyed content-model
cache, and live :class:`~repro.api.InferenceSession` states, so
repeated inference/validation requests skip process startup entirely.

Start it from the CLI (``repro-infer serve --port 8273``) or embed it::

    from repro.serve.daemon import ServeConfig, ServerThread

    with ServerThread(ServeConfig(port=0)) as server:
        ...  # speak HTTP to 127.0.0.1:<server.port>

Endpoints, request shapes and the error model are documented in
docs/API.md.  The daemon deliberately contains no inference logic of
its own — lint rule R001 confines these modules to the façade
(:mod:`repro.api`), :mod:`repro.errors` and :mod:`repro.obs` — so the
HTTP surface can never drift from the library's semantics.
"""
