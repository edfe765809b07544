"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro.cli datasets                   # list benchmarks + stats
    python -m repro.cli export REL-HETER out.json  # export a benchmark
    python -m repro.cli pretrain --model minilm-base
    python -m repro.cli run --dataset REL-HETER --method PromptEM
    python -m repro.cli run --dataset SEMI-HETER --method TDmatch --rate 0.1
    python -m repro.cli run --dataset REL-HETER --save-bundle bundle_dir
    python -m repro.cli serve --bundle bundle_dir --port 8080
    python -m repro.cli serve --bundle bundle_dir --requests req.jsonl
    python -m repro.cli tune --bundle bundle_dir --peft soft_prompt \
        --dataset REL-HETER --out tenants/rel-heter
    python -m repro.cli serve --bundle bundle_dir --tenants tenants
    python -m repro.cli bundle-info tenants/rel-heter
    python -m repro.cli serve --bundle bundle_dir --telemetry s.jsonl --trace
    python -m repro.cli obs-report s.jsonl
    python -m repro.cli clk-encode --catalog REL-HETER --salt-file key \
        --out clk_dir
    python -m repro.cli serve --bundle bundle_dir --blocker clk \
        --clk-catalog clk_dir

The ``repro`` console script (``[project.scripts]`` in pyproject.toml)
maps to :func:`main`, so ``repro serve ...`` works after installation.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from typing import List, Optional


def _telemetry(args: argparse.Namespace):
    """A telemetry session for ``--telemetry``/``--trace``, else a no-op.

    ``--trace`` without ``--telemetry`` still collects spans in memory so
    the per-phase breakdown can be printed at the end.
    """
    from .obs import DISABLED, telemetry_session

    path = getattr(args, "telemetry", None)
    trace = bool(getattr(args, "trace", False))
    if path is None and not trace:
        return contextlib.nullcontext(DISABLED)
    return telemetry_session(path=path, trace=trace)


def _add_telemetry_flags(parser: argparse.ArgumentParser,
                         serving: bool = False) -> None:
    if serving:
        # same flags, same session semantics as run/pretrain -- only the
        # help text says what they mean for a serving process
        parser.add_argument(
            "--telemetry", metavar="PATH", default=None,
            help="write structured JSONL serving telemetry here (request "
                 "traces, drift events, metrics snapshots; render with "
                 "'repro obs-report PATH')")
        parser.add_argument(
            "--trace", action="store_true",
            help="trace requests end to end: admission -> queue -> batch "
                 "-> forward -> respond spans per request, stitched "
                 "across pool replicas")
        return
    parser.add_argument("--telemetry", metavar="PATH", default=None,
                        help="write structured JSONL run telemetry here")
    parser.add_argument("--trace", action="store_true",
                        help="record hierarchical spans and print a "
                             "per-phase time breakdown")


def _emit_serve_slo(tel, server) -> None:
    """Write the final per-tenant SLO snapshot as one ``serve.slo`` event
    so ``repro obs-report`` can render the SLO table from the log alone."""
    snapshot_fn = getattr(server, "slo_snapshot", None)
    if not getattr(tel, "enabled", False) or not callable(snapshot_fn):
        return
    slo = snapshot_fn().get("slo") or {}
    if slo.get("tenants"):
        tel.event("serve.slo", **slo)


def _print_trace_summary(tel) -> None:
    """Per-phase wall-time breakdown from the collected spans."""
    tracer = getattr(tel, "tracer", None)
    if tracer is None or not tracer.spans:
        return
    from .eval import render_table

    rows = [[("  " * rec["depth"]) + rec["name"],
             f"{rec['wall']:.3f}s", f"{rec['cpu']:.3f}s"]
            for rec in sorted(tracer.spans, key=lambda r: r["index"])]
    print(render_table(["Phase", "Wall", "CPU"], rows,
                       title="Per-phase time breakdown"))


def _cmd_datasets(args: argparse.Namespace) -> int:
    from .data import DATASET_NAMES, load_dataset
    from .eval import render_table

    rows = []
    for name in DATASET_NAMES:
        s = load_dataset(name).statistics()
        rows.append([s.name, s.domain, s.left_rows, s.right_rows,
                     s.labeled, f"{s.rate:.0%}", s.train_low_resource])
    print(render_table(
        ["Dataset", "Domain", "L rows", "R rows", "Labeled", "rate", "Train"],
        rows, title="Available benchmarks"))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .data import load_dataset, save_dataset, save_machamp_dir

    dataset = load_dataset(args.dataset)
    if args.machamp:
        save_machamp_dir(dataset, args.output)
    else:
        save_dataset(dataset, args.output)
    print(f"wrote {args.dataset} to {args.output}")
    return 0


def _cmd_pretrain(args: argparse.Namespace) -> int:
    from .lm import load_pretrained

    start = time.time()
    with _telemetry(args) as tel:
        model, tokenizer = load_pretrained(args.model,
                                           force_retrain=args.force,
                                           verbose=True)
        _print_trace_summary(tel)
    print(f"{args.model}: {model.num_parameters()} parameters, "
          f"vocab {len(tokenizer.vocab)}, ready in {time.time() - start:.1f}s")
    return 0


def _make_matcher(method: str, model_name: str):
    from .baselines import BASELINE_NAMES, make_baseline
    from .core import PromptEM, PromptEMConfig

    if method == "PromptEM":
        return PromptEM(PromptEMConfig(model_name=model_name))
    if method in BASELINE_NAMES:
        kwargs = {}
        if method not in ("DeepMatcher", "TDmatch", "TDmatch*"):
            kwargs["model_name"] = model_name
        return make_baseline(method, **kwargs)
    raise SystemExit(
        f"unknown method {method!r}; choose PromptEM or one of {BASELINE_NAMES}")


def _cmd_run(args: argparse.Namespace) -> int:
    from .data import load_dataset, load_dataset_file, load_machamp_dir

    if args.from_file:
        dataset = load_dataset_file(args.from_file)
    elif args.from_dir:
        dataset = load_machamp_dir(args.from_dir)
    else:
        dataset = load_dataset(args.dataset)

    if args.count:
        view = dataset.low_resource_count(args.count, seed=args.seed)
    else:
        view = dataset.low_resource(rate=args.rate, seed=args.seed)
    print(f"{dataset.name}: {len(view.labeled)} labeled / "
          f"{len(view.unlabeled)} unlabeled / {len(view.test)} test")

    matcher = _make_matcher(args.method, args.model)
    with _telemetry(args) as tel:
        tel.event("run.start", method=args.method, dataset=dataset.name,
                  model=args.model, seed=args.seed,
                  labeled=len(view.labeled), unlabeled=len(view.unlabeled),
                  test=len(view.test))
        start = time.time()
        with tel.span("run.fit", method=args.method):
            matcher.fit(view)
        elapsed = time.time() - start
        with tel.span("run.evaluate"):
            prf = matcher.evaluate(view.test)
        if tel.enabled:
            engine_fn = getattr(matcher, "engine", None)
            engine = engine_fn() if callable(engine_fn) else None
            if engine is not None and engine.stats.pairs:
                tel.event("engine.stats", scope="prediction",
                          **engine.stats_dict())
            tel.event("run.summary", f1=float(prf.f1),
                      precision=float(prf.precision),
                      recall=float(prf.recall),
                      elapsed_seconds=elapsed)
        _print_trace_summary(tel)
    print(f"{args.method} on {dataset.name}: "
          f"P={prf.precision:.1f} R={prf.recall:.1f} F1={prf.f1:.1f} "
          f"(trained in {elapsed:.1f}s)")
    if args.verbose:
        _print_engine_stats(matcher)
    if args.save and hasattr(matcher, "save"):
        matcher.save(args.save)
        print(f"saved matcher to {args.save}")
    if args.save_bundle:
        from .serve import ModelBundle

        model = getattr(matcher, "model", None)
        if model is None:
            raise SystemExit(
                f"--save-bundle needs a prompt model; {args.method} has none")
        bundle = ModelBundle.from_model(model, name=dataset.name)
        bundle.save(args.save_bundle)
        print(f"saved serving bundle to {args.save_bundle} "
              f"(threshold {bundle.threshold})")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    """Parameter-efficient tenant tuning: freeze a bundle's backbone,
    train only a soft prompt (optionally adapters), write a DeltaBundle."""
    from .core import (
        Trainer, TrainerConfig, apply_peft, evaluate_f1, trainable_fraction,
    )
    from .data import load_dataset, load_dataset_file
    from .serve import DeltaBundle, ModelBundle

    bundle = ModelBundle.load(args.bundle)
    model = bundle.model
    dataset = (load_dataset_file(args.from_file) if args.from_file
               else load_dataset(args.dataset))
    if args.count:
        view = dataset.low_resource_count(args.count, seed=args.seed)
    else:
        view = dataset.low_resource(rate=args.rate, seed=args.seed)
    apply_peft(model, args.peft, bottleneck=args.bottleneck, seed=args.seed)
    fraction = trainable_fraction(model)
    print(f"{args.peft} tuning on {dataset.name}: "
          f"{model.num_trainable_parameters()} trainable / "
          f"{model.num_parameters()} total parameters ({fraction:.2%})")

    with _telemetry(args) as tel:
        start = time.time()
        trainer = Trainer(model, TrainerConfig(
            epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
            seed=args.seed))
        with tel.span("tune.fit", peft=args.peft):
            trainer.fit(view.labeled, view.valid)
        elapsed = time.time() - start
        f1 = evaluate_f1(model, view.test) if view.test else float("nan")
        _print_trace_summary(tel)

    name = args.name or dataset.name
    delta = DeltaBundle.from_model(model, name=name)
    delta.save(args.out)
    print(f"test F1={f1:.1f} (tuned in {elapsed:.1f}s)")
    print(f"saved delta bundle {name!r} to {args.out}: "
          f"{delta.param_count} parameters, {delta.nbytes()} bytes, "
          f"threshold {delta.threshold}, pin {delta.fingerprint[:12]}")
    return 0


def _cmd_bundle_info(args: argparse.Namespace) -> int:
    """Inspect a bundle directory: schema, kind, parameter counts."""
    import json
    import os

    manifest_path = os.path.join(args.bundle, "bundle.json")
    if not os.path.exists(manifest_path):
        raise SystemExit(f"{args.bundle} is not a bundle (no bundle.json)")
    with open(manifest_path) as f:
        manifest = json.load(f)
    kind = manifest.get("kind", "full")
    print(f"path:           {args.bundle}")
    print(f"schema version: {manifest.get('schema_version')}")
    print(f"kind:           {kind}")
    if kind == "delta":
        from .serve import DeltaBundle

        delta = DeltaBundle.load(args.bundle)
        print(f"name:           {delta.name}")
        print(f"peft:           {delta.peft}")
        if delta.bottleneck is not None:
            print(f"bottleneck:     {delta.bottleneck}")
        print(f"parameters:     {delta.param_count} (all trainable; "
              f"{delta.nbytes()} bytes)")
        print(f"threshold:      {delta.threshold}")
        print(f"backbone pin:   {delta.fingerprint}")
    else:
        from .serve import ModelBundle, backbone_fingerprint

        bundle = ModelBundle.load(args.bundle)
        total = bundle.model.num_parameters()
        trainable = bundle.model.num_trainable_parameters()
        print(f"name:           {bundle.name}")
        print(f"parameters:     {total} total, {trainable} trainable")
        print(f"threshold:      {bundle.threshold}")
        print(f"fingerprint:    {backbone_fingerprint(bundle.model.lm)}")
    return 0


def _load_catalog(spec: str) -> List:
    """Records to index: a ``.jsonl`` of record dicts, a dataset-bundle
    JSON, or a benchmark name (indexes both tables)."""
    import os

    from .data import load_dataset
    from .data.io import _record_from_dict, load_dataset_file

    if spec.endswith(".jsonl"):
        import json

        with open(spec) as f:
            return [_record_from_dict(json.loads(line))
                    for line in f if line.strip()]
    dataset = (load_dataset_file(spec) if os.path.exists(spec)
               else load_dataset(spec))
    return list(dataset.left_table) + list(dataset.right_table)


def _read_salt(literal: Optional[str], path: Optional[str]):
    """Resolve the CLK secret salt from a literal flag or a key file."""
    if literal and path:
        raise SystemExit("pass either a literal salt or a salt file, not both")
    if path:
        with open(path, "rb") as f:
            data = f.read().strip()
        if not data:
            raise SystemExit(f"salt file {path!r} is empty")
        return data
    return literal.encode("utf-8") if literal else None


def _cmd_clk_encode(args: argparse.Namespace) -> int:
    """Encode a plaintext catalog into a CLK catalog directory: the
    artifact one party ships for privacy-preserving matching (ids +
    packed Bloom filters, never raw values, never the salt)."""
    from .privacy import ClkCatalog, ClkConfig, ClkEncoder

    salt = _read_salt(args.salt, args.salt_file)
    if salt is None:
        raise SystemExit("clk-encode needs --salt or --salt-file "
                         "(both parties must share it out of band)")
    config = ClkConfig(nbits=args.nbits, num_hashes=args.hashes,
                       qgram=args.qgram, hardening=args.harden)
    records = _load_catalog(args.catalog)
    if not records:
        raise SystemExit(f"catalog {args.catalog!r} holds no records")
    encoder = ClkEncoder(salt, config)
    with _telemetry(args):
        started = time.perf_counter()
        catalog = ClkCatalog.from_records(encoder, records)
        elapsed = time.perf_counter() - started
    catalog.save(args.out)
    stats = catalog.stats()
    print(f"encoded {stats['count']} records from {args.catalog} "
          f"in {elapsed:.2f}s -> {args.out}")
    print(f"filter: {stats['encoded_nbits']} bits on the wire "
          f"({config.num_hashes} hashes per {config.qgram}-gram, "
          f"hardening {config.hardening}), "
          f"mean fill {stats['mean_fill']:.3f}")
    print(f"salt fingerprint: {stats['salt_digest']} (the catalog never "
          "contains the salt; keep it offline)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import signal
    import threading

    from .serve import (
        DenseCandidateIndex, MatchHTTPServer, MatchServer, ModelBundle,
        ServerConfig, ServingIndex, read_jsonl, serve_requests,
    )

    bundle = ModelBundle.load(args.bundle)
    config = ServerConfig(
        max_queue=args.max_queue,
        max_batch_pairs=args.max_batch_pairs,
        token_budget=args.token_budget,
        cache_capacity=args.cache_capacity,
        default_top_k=args.top_k,
        fuse_tenants=not args.no_fuse_tenants,
    )
    tenants = None
    if args.tenants:
        from .serve import TenantRegistry

        tenants = TenantRegistry(capacity=args.tenant_capacity,
                                 tenants_dir=args.tenants)
        print(f"tenant registry: {len(tenants.tenants())} delta bundles "
              f"from {args.tenants} (capacity {args.tenant_capacity})",
              file=sys.stderr)
    encoder = None
    if args.blocker == "dense" or args.ann:
        from .ann import RecordEncoder

        encoder = RecordEncoder(model_name=args.encoder_model)

    # CLK (privacy-preserving) candidate layer: a pre-encoded catalog, a
    # salt (single-party mode: the server may encode plaintext itself),
    # or both -- either fixes the filter shape
    clk_encoder = None
    clk_catalog = None
    clk_words = None
    clk_salt = _read_salt(args.clk_salt, args.clk_salt_file)
    if clk_salt is not None or args.clk_catalog or args.blocker == "clk":
        from .privacy import ClkCatalog, ClkConfig, ClkEncoder

        if clk_salt is not None:
            clk_encoder = ClkEncoder(clk_salt, ClkConfig(
                nbits=args.clk_nbits, num_hashes=args.clk_hashes,
                qgram=args.clk_qgram, hardening=args.clk_harden))
            clk_words = clk_encoder.config.words
        if args.clk_catalog:
            clk_catalog = ClkCatalog.load(args.clk_catalog)
            if clk_encoder is not None:
                clk_catalog.compatible_with(clk_encoder.params())
            clk_words = int(clk_catalog.params.get(
                "words", clk_catalog.filters.shape[1]))
        if not clk_words:
            raise SystemExit("--blocker clk needs --clk-catalog and/or "
                             "--clk-salt to fix the filter shape")

    from .obs.serving import (
        DriftConfig, DriftMonitor, SloObjectives, SloTracker,
    )

    slo = SloTracker(SloObjectives(latency_s=args.slo_latency_ms / 1000.0,
                                   latency_quantile=args.slo_quantile))
    drift = DriftMonitor(DriftConfig(psi_threshold=args.drift_psi,
                                     reference_size=args.drift_window,
                                     window=args.drift_window))

    if args.replicas > 0:
        # replicated pool: shared-memory weights, sharded catalog; the
        # catalog is journaled before start so every replica forks with it
        from .serve.pool import PoolConfig, ServingPool

        server = ServingPool(
            bundle,
            PoolConfig(replicas=args.replicas, shards=args.shards,
                       server=config, tenants_dir=args.tenants,
                       tenant_capacity=args.tenant_capacity),
            encoder=encoder, dense_kind=args.ann or "ivf",
            dense_seed=args.seed, candidate_mode=args.blocker,
            clk_words=clk_words, clk_encoder=clk_encoder,
            clk_threshold=args.clk_threshold,
            slo=slo, drift=drift)
        where = f" across {server.config.shards} shards"
    else:
        dense_index = None
        if encoder is not None:
            dense_index = DenseCandidateIndex(
                encoder, kind=args.ann or "ivf", default_k=args.top_k,
                seed=args.seed)
        clk_index = None
        if clk_words:
            from .privacy import ClkCandidateIndex

            clk_index = ClkCandidateIndex(words=clk_words,
                                          encoder=clk_encoder,
                                          default_k=args.top_k)
        server = MatchServer(bundle, config,
                             index=ServingIndex(default_k=args.top_k),
                             dense_index=dense_index,
                             clk_index=clk_index,
                             clk_threshold=args.clk_threshold,
                             candidate_mode=args.blocker,
                             tenants=tenants, slo=slo, drift=drift)
        where = ""
    # one seeding path for both topologies: filters, then plaintext (a
    # salted server re-encodes a record's filter from its plaintext)
    if clk_catalog is not None:
        added = server.catalog_add_clk(clk_catalog.entries())
        print(f"seeded {added} clk filters from {args.clk_catalog}{where}",
              file=sys.stderr)
    if args.catalog:
        added = server.catalog_add(_load_catalog(args.catalog))
        if args.replicas == 0 and server.dense_index is not None:
            server.dense_index.train()  # a pool's replicas train at start
        print(f"indexed {added} catalog records from {args.catalog}{where}",
              file=sys.stderr)

    stop_event = threading.Event()

    # install graceful-stop handlers for the serving loop, but put the
    # previous dispositions back on the way out: this function may run
    # inside a larger process (tests, notebooks), and a leftover handler
    # would silently swallow SIGTERM/SIGINT there -- including in any
    # process forked later (e.g. pool replicas), making them unkillable
    previous_handlers = (signal.getsignal(signal.SIGTERM),
                         signal.getsignal(signal.SIGINT))
    try:
        with _telemetry(args) as tel:
            if args.requests:
                # graceful stop: the signal closes intake; serve_requests
                # then drains its pending window, so every accepted
                # request is still answered before the process exits 0
                signal.signal(signal.SIGTERM, lambda *_: stop_event.set())
                signal.signal(signal.SIGINT, lambda *_: stop_event.set())

                def intake(requests):
                    for request in requests:
                        if stop_event.is_set():
                            return
                        yield request

                out = (open(args.output, "w") if args.output else sys.stdout)
                try:
                    with server:
                        for response in serve_requests(
                                server, intake(read_jsonl(args.requests))):
                            out.write(json.dumps(response) + "\n")
                finally:
                    if out is not sys.stdout:
                        out.close()
                stats = server.stats()
                print(f"served {stats['responses']} responses "
                      f"(shed {stats['shed']})", file=sys.stderr)
                if stop_event.is_set():
                    print("stopped on signal after draining",
                          file=sys.stderr)
                _emit_serve_slo(tel, server)
                _print_trace_summary(tel)
                return 0
            http = MatchHTTPServer(server, host=args.host, port=args.port,
                                   admin_token=args.admin_token)

            def _graceful(signum, frame):
                # serve_forever blocks the main thread; httpd.shutdown()
                # must run elsewhere or it deadlocks waiting on the serve
                # loop it interrupted.  Unblocking it triggers
                # MatchHTTPServer's shutdown path, which stops the
                # server/pool with drain=True.
                stop_event.set()
                threading.Thread(target=http.httpd.shutdown,
                                 daemon=True).start()

            signal.signal(signal.SIGTERM, _graceful)
            signal.signal(signal.SIGINT, _graceful)
            topology = (f"{args.replicas} replicas / "
                        f"{server.config.shards} shards"
                        if args.replicas > 0 else "single process")
            print(f"serving {bundle.name} (model version {server.version}, "
                  f"{topology}) on {http.address}", file=sys.stderr)
            try:
                http.serve_forever()
            except KeyboardInterrupt:
                http.shutdown()
            if stop_event.is_set():
                print("shut down gracefully on signal", file=sys.stderr)
            _emit_serve_slo(tel, server)
            _print_trace_summary(tel)
        return 0
    finally:
        signal.signal(signal.SIGTERM, previous_handlers[0])
        signal.signal(signal.SIGINT, previous_handlers[1])


def _cmd_obs_report(args: argparse.Namespace) -> int:
    """Render a telemetry JSONL into the sectioned observability report
    (training and serving events alike; see repro.obs.report)."""
    import json

    from .obs import read_events
    from .obs.report import render_report

    events = read_events(args.path, validate=False)
    if not events:
        print(f"{args.path}: no events", file=sys.stderr)
        return 1
    if args.kind:
        for event in events:
            if event["kind"] == args.kind:
                print(json.dumps(event, sort_keys=True))
        return 0
    print(render_report(events, trace_samples=args.traces))
    return 0


def _cmd_ann_index(args: argparse.Namespace) -> int:
    """Build a dense index over a catalog and report the numbers that
    matter for tuning: build/embed time, recall vs exact top-k, latency."""
    import time

    import numpy as np

    from .ann import RecordEncoder, exact_dense_topk, make_index

    records = _load_catalog(args.catalog)
    if not records:
        raise SystemExit(f"catalog {args.catalog!r} holds no records")
    encoder = RecordEncoder(model_name=args.model, max_len=args.max_len)

    started = time.perf_counter()
    vectors = encoder.encode_records(records)
    embedded = time.perf_counter()

    kwargs = ({"nlist": args.nlist, "nprobe": args.nprobe}
              if args.kind == "ivf" else
              {"num_bands": args.num_bands, "band_bits": args.band_bits,
               "probes": args.probes})
    index = make_index(args.kind, encoder.dim, seed=args.seed, **kwargs)
    if hasattr(index, "train"):
        index.train(vectors)
    ids = [record.record_id for record in records]
    index.add_many(zip(ids, vectors))
    built = time.perf_counter()

    rng = np.random.default_rng(args.seed)
    n_queries = min(args.queries, len(records))
    picks = sorted(rng.choice(len(records), size=n_queries, replace=False)
                   .tolist())
    hits = wanted = 0
    latencies = []
    for row in picks:
        t0 = time.perf_counter()
        found = index.search(vectors[row], args.k)
        latencies.append(time.perf_counter() - t0)
        exact = exact_dense_topk(vectors[row], vectors, ids, args.k)
        got = {record_id for record_id, _ in found}
        hits += sum(1 for record_id in exact if record_id in got)
        wanted += len(exact)
    latencies.sort()
    p50 = latencies[len(latencies) // 2] * 1e3
    p95 = latencies[min(len(latencies) - 1,
                        int(len(latencies) * 0.95))] * 1e3

    print(f"indexed {len(records)} records from {args.catalog} "
          f"({args.kind}, dim {encoder.dim})")
    print(f"embed: {embedded - started:.2f}s  "
          f"index build: {built - embedded:.2f}s")
    print(f"recall@{args.k} vs exact dense top-k: "
          f"{hits / wanted:.4f} over {n_queries} queries")
    print(f"query latency: p50 {p50:.3f}ms  p95 {p95:.3f}ms")
    print(f"stats: {index.stats()}")
    return 0


def _print_engine_stats(matcher) -> None:
    """Inference-engine throughput counters (PromptEM's --verbose path)."""
    report = getattr(matcher, "report", None)
    if report is not None and getattr(report, "engine_batches", 0):
        print("self-training inference engine: "
              f"{report.engine_pairs_per_sec:.0f} pairs/s, "
              f"cache hit rate {report.engine_cache_hit_rate:.1%}, "
              f"{report.engine_batches} batches, "
              f"padding {report.engine_padding_fraction:.1%}")
    engine = None
    engine_fn = getattr(matcher, "engine", None)
    if callable(engine_fn):
        engine = engine_fn()
    if engine is not None and engine.stats.pairs:
        stats = engine.stats_dict()
        print("prediction inference engine: "
              f"{stats['pairs_per_sec']:.0f} pairs/s, "
              f"cache hit rate {stats['cache_hit_rate']:.1%}, "
              f"{stats['batches']} batches, "
              f"padding {stats['padding_fraction']:.1%}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PromptEM reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list benchmark datasets")

    export = sub.add_parser("export", help="export a benchmark to disk")
    export.add_argument("dataset")
    export.add_argument("output")
    export.add_argument("--machamp", action="store_true",
                        help="write a Machamp-style directory instead of JSON")

    pretrain = sub.add_parser("pretrain", help="build/refresh an LM checkpoint")
    pretrain.add_argument("--model", default="minilm-base")
    pretrain.add_argument("--force", action="store_true",
                          help="retrain even if cached")
    _add_telemetry_flags(pretrain)

    run = sub.add_parser("run", help="train + evaluate a matcher")
    run.add_argument("--dataset", default="REL-HETER")
    run.add_argument("--from-file", help="load a dataset bundle JSON instead")
    run.add_argument("--from-dir", help="load a Machamp-style directory instead")
    run.add_argument("--method", default="PromptEM")
    run.add_argument("--model", default="minilm-base")
    run.add_argument("--rate", type=float, default=None,
                     help="labeled fraction (default: dataset's rate)")
    run.add_argument("--count", type=int, default=None,
                     help="exact number of labels (overrides --rate)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--save", help="save the fitted matcher to this path")
    run.add_argument("--save-bundle", metavar="DIR",
                     help="export the trained model as a serving bundle "
                          "(weights + vocab + template + threshold)")
    run.add_argument("--verbose", action="store_true",
                     help="print inference-engine throughput statistics")
    _add_telemetry_flags(run)

    serve = sub.add_parser(
        "serve", help="serve a trained bundle (HTTP or JSONL batch mode)")
    serve.add_argument("--bundle", required=True,
                       help="bundle directory written by run --save-bundle")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--admin-token", default=None,
                       help="require this X-Admin-Token header on /admin/* "
                            "routes; without it admin calls are loopback-only")
    serve.add_argument("--requests", metavar="JSONL",
                       help="answer requests from this JSONL file instead of "
                            "binding a socket")
    serve.add_argument("--output", metavar="JSONL",
                       help="write JSONL responses here (default stdout)")
    serve.add_argument("--catalog", metavar="PATH_OR_NAME",
                       help="records to index for /match: a record JSONL, a "
                            "dataset bundle JSON, or a benchmark name")
    serve.add_argument("--replicas", type=int, default=0,
                       help="serve through a replicated pool of N forked "
                            "workers over shared-memory weights (0 = "
                            "classic single-process server)")
    serve.add_argument("--shards", type=int, default=None,
                       help="candidate-catalog hash shards (default: one "
                            "per replica); shard s lives in replica "
                            "s %% N")
    serve.add_argument("--max-queue", type=int, default=256,
                       help="admission-control queue bound (shed above this)")
    serve.add_argument("--max-batch-pairs", type=int, default=32)
    serve.add_argument("--token-budget", type=int, default=2048,
                       help="max (rows+1)*max_len tokens per micro-batch")
    serve.add_argument("--cache-capacity", type=int, default=8192)
    serve.add_argument("--top-k", type=int, default=5,
                       help="candidates returned by /match")
    serve.add_argument("--blocker", choices=["sparse", "dense", "clk"],
                       default="sparse",
                       help="candidate generator for /match: token overlap "
                            "(sparse), ANN over embeddings (dense), or "
                            "privacy-preserving Bloom-filter Dice (clk, "
                            "served via /clk/match); flippable at runtime "
                            "via POST /admin/candidates")
    serve.add_argument("--ann", choices=["ivf", "lsh"], default=None,
                       help="also build a dense ANN index of this kind even "
                            "when starting in sparse mode (default ivf when "
                            "--blocker dense)")
    serve.add_argument("--clk-catalog", metavar="DIR", default=None,
                       help="pre-encoded CLK catalog directory (written by "
                            "repro clk-encode) to seed the privacy-"
                            "preserving candidate index; the server only "
                            "ever sees filter bytes + ids")
    serve.add_argument("--clk-salt", default=None,
                       help="CLK secret salt (single-party mode: lets the "
                            "server encode plaintext catalog adds itself; "
                            "omit for cross-party filters-only serving)")
    serve.add_argument("--clk-salt-file", metavar="PATH", default=None,
                       help="read the CLK salt from this file instead of "
                            "the command line")
    serve.add_argument("--clk-threshold", type=float, default=0.8,
                       help="Dice score at or above which a /clk/match "
                            "candidate is flagged as a match")
    serve.add_argument("--clk-nbits", type=int, default=1024,
                       help="CLK filter bits before hardening (with "
                            "--clk-salt; must match the peer's encoding)")
    serve.add_argument("--clk-hashes", type=int, default=30,
                       help="bits set per q-gram (with --clk-salt)")
    serve.add_argument("--clk-qgram", type=int, default=2,
                       help="q-gram length (with --clk-salt)")
    serve.add_argument("--clk-harden", choices=["none", "balance", "fold"],
                       default="none",
                       help="CLK hardening mode (with --clk-salt); see "
                            "docs/PRIVACY.md for the trade-offs")
    serve.add_argument("--encoder-model", default="minilm-base",
                       help="checkpoint for the frozen bi-encoder behind the "
                            "dense index")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for ANN index construction")
    serve.add_argument("--tenants", metavar="DIR", default=None,
                       help="directory of per-tenant delta bundles (one "
                            "subdirectory each, written by repro tune); "
                            "requests may then carry a 'tenant' id")
    serve.add_argument("--tenant-capacity", type=int, default=64,
                       help="LRU bound on resident (materialized) tenant "
                            "deltas; evicted tenants reload from disk on "
                            "next use")
    serve.add_argument("--no-fuse-tenants", action="store_true",
                       help="disable mixed-tenant micro-batch fusion "
                            "(fall back to same-tenant-only batches)")
    serve.add_argument("--slo-latency-ms", type=float, default=250.0,
                       help="per-tenant latency objective: the SLO "
                            "quantile of end-to-end request latency must "
                            "stay under this (reported by GET /slo)")
    serve.add_argument("--slo-quantile", type=float, default=0.95,
                       help="which latency quantile the objective bounds")
    serve.add_argument("--drift-psi", type=float, default=0.2,
                       help="PSI threshold for the served score-"
                            "distribution drift monitor (raises a "
                            "serve.drift event and flips the "
                            "serve.drift.active gauge)")
    serve.add_argument("--drift-window", type=int, default=256,
                       help="rolling window (and reference size) of the "
                            "drift monitor, in served scores per tenant")
    _add_telemetry_flags(serve, serving=True)

    tune = sub.add_parser(
        "tune", help="parameter-efficient tenant tuning: train a soft "
                     "prompt (or adapters) over a frozen bundle backbone "
                     "and save a KB-scale delta bundle")
    tune.add_argument("--bundle", required=True,
                      help="base full bundle (the shared backbone)")
    tune.add_argument("--out", required=True,
                      help="directory to write the tenant delta bundle")
    tune.add_argument("--peft", choices=["soft_prompt", "adapter"],
                      default="soft_prompt",
                      help="what to train: prompt embeddings only, or "
                           "prompt embeddings + bottleneck adapters")
    tune.add_argument("--dataset", default="REL-HETER",
                      help="the tenant's labeled data (benchmark name)")
    tune.add_argument("--from-file", help="load a dataset bundle JSON instead")
    tune.add_argument("--name", default=None,
                      help="tenant name recorded in the delta manifest "
                           "(default: dataset name)")
    tune.add_argument("--rate", type=float, default=None,
                      help="labeled fraction (default: dataset's rate)")
    tune.add_argument("--count", type=int, default=None,
                      help="exact number of labels (overrides --rate)")
    tune.add_argument("--bottleneck", type=int, default=8,
                      help="adapter bottleneck width (--peft adapter)")
    tune.add_argument("--epochs", type=int, default=10)
    tune.add_argument("--batch-size", type=int, default=16)
    tune.add_argument("--lr", type=float, default=1e-2,
                      help="PEFT wants a larger step than full fine-tuning")
    tune.add_argument("--seed", type=int, default=0)
    _add_telemetry_flags(tune)

    info = sub.add_parser(
        "bundle-info",
        help="inspect a bundle directory: schema version, kind "
             "(full/delta), parameter counts, backbone fingerprint")
    info.add_argument("bundle", help="bundle directory to inspect")

    ann = sub.add_parser(
        "ann-index",
        help="build a dense ANN index over a catalog and report "
             "build time, recall vs exact top-k, and query latency")
    ann.add_argument("--catalog", required=True, metavar="PATH_OR_NAME",
                     help="records to index: a record JSONL, a dataset "
                          "bundle JSON, or a benchmark name")
    ann.add_argument("--model", default="minilm-base",
                     help="checkpoint for the frozen bi-encoder")
    ann.add_argument("--kind", choices=["ivf", "lsh"], default="ivf")
    ann.add_argument("--k", type=int, default=10,
                     help="neighbours per query")
    ann.add_argument("--queries", type=int, default=100,
                     help="number of indexed records replayed as queries")
    ann.add_argument("--seed", type=int, default=0)
    ann.add_argument("--nlist", type=int, default=64,
                     help="IVF coarse clusters")
    ann.add_argument("--nprobe", type=int, default=8,
                     help="IVF lists probed per query")
    ann.add_argument("--num-bands", type=int, default=16,
                     help="LSH signature bands")
    ann.add_argument("--band-bits", type=int, default=12,
                     help="LSH bits per band")
    ann.add_argument("--probes", type=int, default=0,
                     help="LSH multi-probe bit flips per band")
    ann.add_argument("--max-len", type=int, default=48,
                     help="encoder truncation length")
    _add_telemetry_flags(ann)

    clk = sub.add_parser(
        "clk-encode",
        help="encode a catalog as salted Bloom-filter CLKs for privacy-"
             "preserving matching: ship the output directory, keep the "
             "salt secret")
    clk.add_argument("--catalog", required=True, metavar="PATH_OR_NAME",
                     help="records to encode: a record JSONL, a dataset "
                          "bundle JSON, or a benchmark name")
    clk.add_argument("--out", required=True, metavar="DIR",
                     help="directory to write the CLK catalog "
                          "(clk.json + clks.npy + ids.json)")
    clk.add_argument("--salt", default=None,
                     help="shared secret salt as a literal string")
    clk.add_argument("--salt-file", metavar="PATH", default=None,
                     help="read the salt from this file (recommended: "
                          "keeps the key out of shell history)")
    clk.add_argument("--nbits", type=int, default=1024,
                     help="filter bits before hardening (multiple of 64)")
    clk.add_argument("--hashes", type=int, default=30,
                     help="bits set per q-gram (double hashing)")
    clk.add_argument("--qgram", type=int, default=2,
                     help="q-gram length over normalized tokens")
    clk.add_argument("--harden", choices=["none", "balance", "fold"],
                     default="none",
                     help="hardening: balance (constant Hamming weight, "
                          "2x length) or fold (XOR halves, half length)")
    _add_telemetry_flags(clk)

    report = sub.add_parser(
        "obs-report",
        help="summarize a --telemetry JSONL: loss curves and span trees "
             "for training runs, request traces / SLO table / drift "
             "events for serving sessions")
    report.add_argument("path", help="telemetry JSONL written by "
                                     "--telemetry on any command")
    report.add_argument("--kind", default=None,
                        help="dump raw events of one kind instead of "
                             "rendering the report")
    report.add_argument("--traces", type=int, default=3,
                        help="sample request-trace trees to print in the "
                             "traces section")
    return parser


_COMMANDS = {
    "datasets": _cmd_datasets,
    "export": _cmd_export,
    "pretrain": _cmd_pretrain,
    "run": _cmd_run,
    "serve": _cmd_serve,
    "ann-index": _cmd_ann_index,
    "clk-encode": _cmd_clk_encode,
    "tune": _cmd_tune,
    "bundle-info": _cmd_bundle_info,
    "obs-report": _cmd_obs_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
