"""The three workloads: cold replay, served Zipf and durable ingest history.

Every workload runs against the deployment the synthetic SQLShare
generator builds at ``SCALE`` from ``HISTORY_SEED``.  The deployment is
fixed because at the scale a run can afford (11 users) the generator's
output varies a lot from seed to seed: over six seeds the cold replay rate
ranged from 349 to 1399 queries/s.  The benchmark's ``--seed`` therefore
picks what a seed can change without changing the workload's statistics:
the replay order (``replay_cold``) and the clients' request streams
(``rest_zipf``).  ``ingest_history`` replays the same history in
every run; its seed only names the run.  ``WORKLOADS.md`` records why each
workload was chosen and its sizes.

Each workload measures whole units -- a replay pass, a run of the request
schedule, a history -- until ``seconds`` of measured time have passed.
With tracing on, odd units run with the ledger installed and even units
without it; the difference between the two is the tracing overhead, and
only the traced units feed the per-layer metrics.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from collections import Counter, defaultdict
from decimal import Decimal

from repro.core.sqlshare import SQLShare
from repro.errors import ReproError
from repro.runtime import SUCCEEDED, QueryRuntime, RuntimeConfig
from repro.server.rest import SQLShareApp
from repro.storage import StorageManager
from repro.storage.serialize import json_default, platform_to_state
from repro.synth.driver import PAPER_USERS, replayable_queries
from repro.synth.sqlshare_workload import START, SQLShareWorkloadGenerator

SCALE = 0.02
HISTORY_SEED = 42
#: ``rest_zipf``: set-ups per run (median reported), result-cache entries,
#: requests in the client's schedule (one unit), and the unmeasured units
#: that fill the cache first.
SETUPS = 3
CACHE_ENTRIES = 256
SCHEDULE_LENGTH = 6000
WARMUP_UNITS = 1
#: ``ingest_history``: WAL flush policy and auto-checkpoint interval.
WAL_SYNC = "buffered"
CHECKPOINT_EVERY = 400

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: ``ingest_history``'s set-up, run in a fresh process: import the program
#: and open a durable platform on an empty data dir, as a durable ``repro
#: serve`` with no state starts.  Opening alone takes about a tenth of a
#: millisecond, all of it file-system calls whose cost doubled from one
#: run to the next on a shared 2-vCPU host; the start-up around it takes
#: about 0.15 s and moved by half as much.
_STARTUP = """
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.open_durable(sys.argv[3])[1].close()
"""

#: Platform calls the generator makes; one call is one ingest operation.
PLATFORM_CALLS = ("upload", "create_dataset", "run_query", "make_public",
                  "share", "delete_dataset", "download")

_NULL_OP = contextlib.nullcontext()


# -- row digests ---------------------------------------------------------------


def _normal(value):
    """Type-normalised value: numbers (and numeric text) compare by value
    at 9 significant digits, everything else by its text, so engine rows
    and JSON-decoded REST rows digest alike."""
    if value is None:
        return "n"
    if isinstance(value, (bool, int, float, Decimal)):
        number = float(value)
    else:
        text = str(value)
        try:
            number = float(text)
        except ValueError:
            return "s" + text
    if number != number:
        return "nan"
    return "f%.9g" % number


def rows_digest(rows):
    """Order-insensitive digest of a row multiset: a hash of the row count
    and the sum of the rows' SHA-1 digests.  It holds no sorted copy of the
    rows, so checking the one 257,652-row result does not add a transient
    of about 30 MB to the process's peak memory."""
    count = total = 0
    for row in rows:
        line = "\x1f".join(_normal(value) for value in row)
        total += int.from_bytes(hashlib.sha1(line.encode("utf-8")).digest(),
                                "big")
        count += 1
    return hashlib.sha1(("%d:%x" % (count, total)).encode(
        "ascii")).hexdigest()[:16]


def query_key(owner, sql):
    return hashlib.sha1(("%s\n%s" % (owner, sql)).encode("utf-8")).hexdigest()[:16]


#: The committed reference each workload checks against, in the
#: benchmark's ``reference`` directory (written by ``make_reference.py``).
REFERENCE_FILES = {
    "replay_cold": "replay_cold.json",
    "rest_zipf": "replay_cold.json",
    "ingest_history": "ingest_history.json",
}


def load_reference(path, scale):
    """The committed reference, when it was taken at this scale."""
    if path is None or not os.path.exists(path):
        return None
    with open(path) as handle:
        reference = json.load(handle)
    if reference["scale"] != scale or reference["history_seed"] != HISTORY_SEED:
        return None
    return reference


def _key_set_mismatch(pairs, digests):
    """Committed query keys the deployment no longer replays, plus the
    keys it replays that the reference does not hold."""
    keys = {query_key(owner, sql) for owner, sql in pairs}
    return len(set(digests) ^ keys)


# -- shared pieces ---------------------------------------------------------------


class OpTimer(object):
    """Times the platform calls the generator makes (outermost only).

    Installed as instance attributes that resolve the class method at call
    time, so ledger wrappers installed on the class later are still seen.
    """

    def __init__(self, tracer=None):
        self.latencies = defaultdict(list)
        self.raised = Counter()
        self.uploaded_bytes = 0
        self.tracer = tracer
        self._depth = 0

    def attach(self, platform):
        for name in PLATFORM_CALLS:
            setattr(platform, name, self._timed(platform, name))

    @staticmethod
    def detach(platform):
        for name in PLATFORM_CALLS:
            platform.__dict__.pop(name, None)

    def _timed(self, platform, name):
        cls = type(platform)

        def timed(*args, **kwargs):
            method = getattr(cls, name)
            if self._depth:
                return method(platform, *args, **kwargs)
            self._depth += 1
            op = self.tracer.op() if self.tracer is not None else _NULL_OP
            try:
                with op:
                    started = time.perf_counter()
                    try:
                        result = method(platform, *args, **kwargs)
                    except Exception:
                        self.raised[name] += 1
                        raise
                    finally:
                        self.latencies[name].append(
                            time.perf_counter() - started)
            finally:
                self._depth -= 1
            if name == "upload":
                self.uploaded_bytes += len(args[2])
            return result

        return timed

    def all_latencies(self):
        return [value for values in self.latencies.values() for value in values]


def generate_history(scale, timer, platform=None):
    """Run the generator's history with its platform calls timed."""
    generator = SQLShareWorkloadGenerator(
        seed=HISTORY_SEED, users=PAPER_USERS, scale=scale, platform=platform)
    timer.attach(generator.platform)
    try:
        generator.generate()
    finally:
        OpTimer.detach(generator.platform)
    return generator


def serve_config(**overrides):
    """``repro serve``'s RuntimeConfig with no worker threads and no monitor:
    queries run inline in the caller's thread."""
    settings = dict(max_workers=0, monitor_enabled=False)
    settings.update(overrides)
    return RuntimeConfig(**settings)


def logged_row_counts(platform):
    """(owner, sql) -> row count the generator's run logged."""
    return {(entry.owner, entry.sql): entry.row_count
            for entry in platform.log.successful()}


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2] if ordered else 0.0


def _percentile(ordered, fraction):
    return ordered[min(len(ordered) - 1, int(len(ordered) * fraction))]


class Result(object):
    """What a workload hands back to ``run.py``.

    Latencies are kept per unit and upload timings per build.  Every unit
    (a replay pass, a run of the schedule, a history) and every build
    repeats the same work, so each end-to-end timing is taken within one
    unit and the run reports the best unit (min-of-N).  The host this was tuned on has slow
    phases of a minute or more that stretch every timing by up to a quarter
    at once; a figure that needs one unaffected unit moves less than a
    median over all of them.  ``setup_s`` is the median set-up.
    """

    def __init__(self):
        self.units = []  # (traced, latencies, measured seconds)
        self.builds = []  # (upload latencies, create_dataset latencies)
        self.setup_seconds = []
        self.measured_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.checks = []  # (description, passed)
        self.notes = {}  # extra figures for the report
        self.layer_extra = defaultdict(float)

    def fail(self, description):
        if (description, False) not in self.checks:
            self.checks.append((description, False))

    def add_unit(self, traced, latencies, seconds):
        self.units.append((traced, latencies, seconds))
        self.measured_seconds += seconds

    def add_build(self, timer):
        self.builds.append((timer.latencies["upload"],
                            timer.latencies["create_dataset"]))

    def samples(self):
        return sum(len(latencies) for _traced, latencies, _s in self.units)

    def traced_ops(self):
        """Operations the traced units timed, and their summed latency."""
        traced = [latencies for is_traced, latencies, _s in self.units
                  if is_traced]
        return (sum(len(latencies) for latencies in traced),
                sum(sum(latencies) for latencies in traced))

    def end_to_end(self):
        plain = [(sorted(latencies), seconds)
                 for traced, latencies, seconds in self.units if not traced]
        return {
            "setup_s": (_median(self.setup_seconds), "s"),
            "ops_per_s": (max(len(ordered) / seconds
                              for ordered, seconds in plain), "1/s"),
            "p50_ms": (min(_percentile(ordered, 0.50)
                           for ordered, _s in plain) * 1e3, "ms"),
            "p99_ms": (min(_percentile(ordered, 0.99)
                           for ordered, _s in plain) * 1e3, "ms"),
            "upload_p50_ms": (min(_median(uploads)
                                  for uploads, _d in self.builds) * 1e3, "ms"),
            "derive_p50_ms": (min(_median(derives)
                                  for _u, derives in self.builds) * 1e3, "ms"),
        }

    def trace_overhead(self):
        rates = {True: [], False: []}
        for traced, latencies, seconds in self.units:
            rates[traced].append(len(latencies) / seconds)
        if not rates[True] or not rates[False]:
            return 0.0
        return _median(rates[True]) / _median(rates[False]) - 1.0


# -- replay_cold -----------------------------------------------------------------


def replay_cold(seconds, seed, scale, ledger, reference, **_unused):
    """One client replays the deployment's replayable log, cache off.

    Every pass rebuilds the deployment, so no memo survives from one pass
    to the next: each pass is as cold as the first.  The seed draws each
    pass's replay order, so a run covers many orders, not one.
    """
    result = Result()
    digests = reference["digests"] if reference is not None else None
    shuffler = random.Random(seed)
    verified = set()  # (index, rows hash) already proven correct
    unit = 0
    while result.measured_seconds < seconds or (ledger and unit < 2):
        gc.collect()
        started = time.perf_counter()
        timer = OpTimer()
        platform = generate_history(scale, timer).platform
        pairs = replayable_queries(platform)
        row_counts = logged_row_counts(platform)
        runtime = QueryRuntime(platform, serve_config(cache_enabled=False))
        platform.db.plan_check_mode = "warn"
        result.setup_seconds.append(time.perf_counter() - started)
        result.add_build(timer)
        order = list(range(len(pairs)))
        shuffler.shuffle(order)
        if digests is not None:
            # A query that drops out of the replayable set is never run, so
            # each pass counts it as a failed operation.
            missing = _key_set_mismatch(pairs, digests)
            if missing:
                result.attempted += missing
                result.failed += missing
                result.fail("replayed queries differ from the reference's")
        traced = ledger is not None and unit % 2 == 1
        if traced:
            ledger.install()
        latencies = []
        try:
            for index in order:
                owner, sql = pairs[index]
                op = ledger.op() if traced else _NULL_OP
                with op:
                    began = time.perf_counter()
                    job = runtime.submit(owner, sql, source="replay",
                                         inline=True)
                    latencies.append(time.perf_counter() - began)
                if not _replay_ok(job, index, digests, row_counts,
                                  verified):
                    result.failed += 1
        finally:
            if traced:
                ledger.uninstall()
            runtime.shutdown()
        if traced:
            result.layer_extra["probes"] += _probes(platform)
        result.attempted += len(order)
        result.add_unit(traced, latencies, sum(latencies))
        # Drop this pass's deployment before the next one is built, so the
        # peak RSS is one deployment's, whatever the collector's timing.
        platform = runtime = job = None
        gc.collect()
        unit += 1
    result.notes.update(passes=unit, queries_per_pass=len(order),
                        distinct_texts=len({sql for _owner, sql in pairs}))
    return result


def _replay_ok(job, index, digests, row_counts, verified):
    """Rows equal to the committed digest, or else to the logged count.
    Rows seen and proven before (by a hash of the rows) are not digested
    again."""
    if job.state != SUCCEEDED:
        return False
    rows = job.result.rows
    seen = (index, hash(tuple(map(tuple, rows))))
    if seen in verified:
        return True
    key = (job.user, job.sql)
    if digests is not None:
        correct = digests.get(query_key(*key)) == rows_digest(rows)
    else:
        correct = len(rows) == row_counts[key]
    if correct:
        verified.add(seen)
    return correct


# -- rest_zipf -------------------------------------------------------------------


def _wsgi(app, method, path, user, body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else b""
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "HTTP_X_SQLSHARE_USER": user,
        "CONTENT_LENGTH": str(len(data)),
        "wsgi.input": io.BytesIO(data),
    }
    status = []
    chunks = app(environ, lambda line, headers: status.append(line))
    return int(status[0].split()[0]), b"".join(chunks)


def zipf_schedule(count, length, rng):
    """A shuffled request schedule of ``length`` requests in which rank
    ``r`` (0-based) appears ``length / ((r + 1) * H)`` times, H the harmonic
    number: Zipf(s=1), rounded by largest remainder.  The counts do not
    depend on ``rng``, which only orders the requests, so every seed makes
    the same requests and the share of rare, costly ones never varies."""
    weights = [1.0 / (rank + 1) for rank in range(count)]
    total = sum(weights)
    expected = [length * weight / total for weight in weights]
    counts = [int(value) for value in expected]
    by_remainder = sorted(range(count),
                          key=lambda rank: (counts[rank] - expected[rank], rank))
    for rank in by_remainder[:length - sum(counts)]:
        counts[rank] += 1
    schedule = [rank for rank in range(count) for _ in range(counts[rank])]
    rng.shuffle(schedule)
    return schedule


def _rest_setup(scale, result, digests):
    """Fresh deployment, the distinct replayable queries it serves with
    their reference digests taken with the cache off, and the app.  At the
    benchmark's scale those digests must equal the committed ones.

    Queries whose result exceeds the cache's row cap are left out: such a
    result is never cached, and the one there is (a 257,652-row multi-join
    at the fixed scale) costs about a second per request, so the few times
    the stream draws it would decide a run's throughput.  ``replay_cold``
    still runs it once per pass.
    """
    gc.collect()
    started = time.perf_counter()
    timer = OpTimer()
    platform = generate_history(scale, timer).platform
    config = serve_config(cache_entries=CACHE_ENTRIES)
    distinct = list(dict.fromkeys(replayable_queries(platform)))
    pairs = []
    served = []
    wrong = 0
    for owner, sql in distinct:
        try:
            rows = platform.db.execute(sql).rows
        except ReproError as error:  # every request for it will count failed
            pairs.append((owner, sql))
            served.append("error: %s" % error)
            continue
        digest = rows_digest(rows)
        if digests is not None and digests.get(query_key(owner, sql)) != digest:
            wrong += 1
        if len(rows) <= config.cache_max_rows:
            pairs.append((owner, sql))
            served.append(digest)
    app = SQLShareApp(platform, run_async=False, runtime_config=config)
    platform.db.plan_check_mode = "warn"
    result.setup_seconds.append(time.perf_counter() - started)
    result.add_build(timer)
    if digests is not None:
        wrong += _key_set_mismatch(distinct, digests)
        if wrong:
            result.attempted += wrong
            result.failed += wrong
            result.fail("set-up answers differ from the reference's")
    return app, pairs, served


def rest_zipf(seconds, seed, scale, ledger, reference, **_unused):
    """One closed-loop client POSTs a query and GETs its results through
    the in-process WSGI app; requests follow Zipf(s=1) over the distinct
    replayable (user, sql) pairs.  The popularity ranking is a shuffle fixed
    by the deployment's seed, so the hot set is the same in every run; the
    benchmark's seed draws the client's schedule.  One unit runs the whole
    schedule, so every unit repeats the same requests against a cache the
    previous unit left in the same state.  Unmeasured units fill the cache
    first."""
    result = Result()
    digests = reference["digests"] if reference is not None else None
    app = None
    for _ in range(SETUPS):
        if app is not None:
            # Free the previous set-up's deployment before the next is timed.
            app.runtime.shutdown()
            app = None
        app, pairs, served = _rest_setup(scale, result, digests)
    ranking = list(range(len(pairs)))
    random.Random(HISTORY_SEED).shuffle(ranking)
    schedule = [ranking[rank] for rank in zipf_schedule(
        len(pairs), SCHEDULE_LENGTH, random.Random(seed))]
    client = _Client(app, pairs, served, schedule)
    for _ in range(WARMUP_UNITS):
        client.run_schedule(None, result)
    unit = 0
    while result.measured_seconds < seconds or (ledger and unit < 2):
        traced = ledger is not None and unit % 2 == 1
        before = _rest_counters(app)
        if traced:
            ledger.install()
        try:
            latencies = client.run_schedule(ledger if traced else None,
                                            result)
        finally:
            if traced:
                ledger.uninstall()
        result.add_unit(traced, latencies, sum(latencies))
        if traced:
            after = _rest_counters(app)
            for key in after:
                result.layer_extra[key] += after[key] - before[key]
        elif ledger is None and unit % 2 == 0:
            _timed_build(scale, result)
        unit += 1
    app.runtime.shutdown()
    cache = app.runtime.cache
    result.notes.update(units=unit, distinct_texts=len({s for _o, s in pairs}),
                        cache_entries=cache.capacity,
                        cache_hit_ratio=round(cache.stats.hit_rate, 4),
                        capacity_evictions=cache.stats.capacity_evictions)
    return result


def _timed_build(scale, result):
    """One more build of the deployment, for ``upload_p50_ms`` and
    ``derive_p50_ms`` only, made between measured units and freed at once.

    The three set-ups all run in the first seconds of a run, so a slow
    phase of the host there decided the lowest per-build median; a build
    after every other unit spreads the builds over the whole run."""
    gc.collect()
    timer = OpTimer()
    generate_history(scale, timer)
    result.add_build(timer)
    gc.collect()


class _Client(object):
    """The closed-loop client of ``rest_zipf`` and its answer checks.
    Response bodies are decoded and checked after each run of the schedule,
    outside the timed requests."""

    def __init__(self, app, pairs, digests, schedule):
        self.app = app
        self.pairs = pairs
        self.digests = digests
        self.schedule = schedule
        #: (pair index, rows hash) already proven equal to the reference.
        self.verified = set()

    def run_schedule(self, ledger, result):
        """Make every request of the schedule, then check the answers.
        Returns the latencies."""
        latencies = []
        answers = []
        perf_counter = time.perf_counter
        for index in self.schedule:
            owner, sql = self.pairs[index]
            op = ledger.op() if ledger is not None else _NULL_OP
            with op:
                began = perf_counter()
                status, body = _wsgi(self.app, "POST", "/api/v1/query", owner,
                                     {"sql": sql})
                if status == 202:
                    query_id = json.loads(body)["id"]
                    status, body = _wsgi(
                        self.app, "GET", "/api/v1/query/%s/results" % query_id,
                        owner)
                latencies.append(perf_counter() - began)
            answers.append((index, status, body))
        result.attempted += len(latencies)
        result.failed += sum(not self._correct(index, status, body)
                             for index, status, body in answers)
        return latencies

    def _correct(self, index, status, body):
        if status != 200:
            return False
        rows = json.loads(body)["rows"]
        key = (index, hashlib.sha1(json.dumps(rows).encode("utf-8")).digest())
        if key in self.verified:
            return True
        if rows_digest(rows) != self.digests[index]:
            return False
        self.verified.add(key)
        return True


def _rest_counters(app):
    stats = app.runtime.cache.stats
    return {
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "capacity_evictions": stats.capacity_evictions,
        "invalidations": stats.invalidations,
        "probes": _probes(app.platform),
    }


def _probes(platform):
    return platform.metrics.snapshot().get("repro_adaptive_probes_total", 0)


# -- ingest_history --------------------------------------------------------------


def open_durable(data_dir):
    """A fresh platform with a StorageManager attached, as a durable
    ``repro serve`` starts."""
    platform = SQLShare(start_time=START)
    manager = StorageManager(data_dir, sync=WAL_SYNC,
                             auto_checkpoint_records=CHECKPOINT_EVERY)
    manager.attach(platform)
    return platform, manager


def canonical_state(platform):
    """The platform's logical state with the query log ordered by query_id.

    ``generate()`` re-sorts ``platform.log.entries`` by timestamp in place
    after the last WAL record, so a recovered platform holds the same
    entries in commit order.  Everything else must match exactly; the
    exclusions are those of ``repro.storage.serialize.state_digest``.
    """
    state = platform_to_state(platform)
    state["engine"].pop("versions")
    state.pop("querystore", None)
    state.pop("feedback", None)
    entries = state["querylog"]["entries"]
    for entry in entries:
        entry.pop("plan_json", None)
    entries.sort(key=lambda entry: entry["query_id"])
    return json.loads(json.dumps(state, default=json_default, sort_keys=True))


def history_figures(generator, timer, state):
    """What every history at a scale must repeat exactly: the calls made
    and raised per platform call, the generator's own counts, the CSV bytes
    uploaded, and a digest of the canonical live state.  The digest leaves
    out ``exec_seconds``, the one measured timing the state holds."""
    entries = state["querylog"]["entries"]
    timings = [entry.pop("exec_seconds") for entry in entries]
    digest = hashlib.sha1(json.dumps(state, sort_keys=True).encode(
        "utf-8")).hexdigest()[:16]
    for entry, seconds in zip(entries, timings):
        entry["exec_seconds"] = seconds
    return {
        "calls": {name: len(timer.latencies[name]) for name in PLATFORM_CALLS},
        "raised": {name: timer.raised[name] for name in PLATFORM_CALLS},
        "generator_stats": dict(generator.stats),
        "uploaded_bytes": timer.uploaded_bytes,
        "state_digest": digest,
    }


def _figure_mismatch(figures, expected):
    """How far a history's figures are from the committed ones: the summed
    difference of every count, plus one for a different state digest."""
    wrong = int(figures["state_digest"] != expected["state_digest"])
    wrong += int(figures["uploaded_bytes"] != expected["uploaded_bytes"])
    for group in ("calls", "raised", "generator_stats"):
        have, want = figures[group], expected[group]
        wrong += sum(abs(have.get(key, 0) - want.get(key, 0))
                     for key in set(have) | set(want))
    return wrong


def start_durable(data_dir):
    """Seconds a fresh process takes to start, import the program and open
    a durable platform on the empty ``data_dir``."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", _STARTUP, SRC, HERE, data_dir],
                   check=True)
    return time.perf_counter() - started


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path))


def ingest_history(seconds, scale, ledger, work_dir, reference, **_unused):
    """The generator's multi-year history on a durable platform, then a
    recovery from the data dir that must reproduce the live state.  At the
    benchmark's scale the history's figures must equal the committed ones,
    so a call that starts to fail, or work that drops out, shows."""
    result = Result()
    amps = []
    recoveries = []
    uploaded = []
    deliberate = 0
    unit = 0
    while result.measured_seconds < seconds or (ledger and unit < 2):
        traced = ledger is not None and unit % 2 == 1
        startup_dir = os.path.join(work_dir, "startup-%d" % unit)
        data_dir = os.path.join(work_dir, "history-%d" % unit)
        for path in (startup_dir, data_dir):
            shutil.rmtree(path, ignore_errors=True)
        result.setup_seconds.append(start_durable(startup_dir))
        shutil.rmtree(startup_dir)
        platform, manager = open_durable(data_dir)
        timer = OpTimer(ledger if traced else None)
        if traced:
            ledger.install()
        try:
            generator = generate_history(scale, timer, platform=platform)
        finally:
            if traced:
                ledger.uninstall()
            manager.close()
        latencies = timer.all_latencies()
        result.add_unit(traced, latencies, sum(latencies))
        result.add_build(timer)
        result.attempted += len(latencies)
        deliberate += generator.stats["failed_actions"]
        # Every raised call must be one the generator expected and counted.
        raised = sum(timer.raised.values())
        if raised != generator.stats["failed_actions"]:
            result.failed += abs(raised - generator.stats["failed_actions"])
            result.fail("raised calls differ from the generator's failures")
        amps.append(_dir_bytes(data_dir) / float(timer.uploaded_bytes))
        uploaded.append(timer.uploaded_bytes)
        began = time.perf_counter()
        recovering = StorageManager(data_dir, sync=WAL_SYNC)
        recovered, _report = recovering.recover()
        recoveries.append(time.perf_counter() - began)
        recovering.close()
        live = canonical_state(platform)
        if canonical_state(recovered) != live:
            result.failed += len(latencies)
            result.fail("recovered state differs from the live state")
        if reference is not None:
            wrong = _figure_mismatch(
                history_figures(generator, timer, live), reference)
            if wrong:
                result.failed += wrong
                result.fail("history figures differ from the reference's")
        if traced:
            result.layer_extra["uploads"] += len(timer.latencies["upload"])
        shutil.rmtree(data_dir, ignore_errors=True)
        unit += 1
    result.notes.update(
        histories=unit, ops_per_history=result.attempted // unit,
        uploaded_bytes_per_history=_median(uploaded),
        deliberate_failures=deliberate,
        deliberate_frac=deliberate / float(result.attempted),
        storage_amp=_median(amps), recover_s=_median(recoveries),
        wal_sync=WAL_SYNC, checkpoint_every=CHECKPOINT_EVERY)
    result.layer_extra["storage_amp"] = _median(amps)
    result.layer_extra["recover_s"] = _median(recoveries)
    return result


WORKLOADS = {
    "replay_cold": replay_cold,
    "rest_zipf": rest_zipf,
    "ingest_history": ingest_history,
}
