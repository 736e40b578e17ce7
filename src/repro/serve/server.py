"""The asyncio front-end: admission, back-pressure, per-design workers.

One event loop owns everything light — socket framing, validation,
queueing — and hands the heavy synchronous work (the composition jobs of
:meth:`~repro.serve.registry.DesignRegistry.run_job`) to a thread pool,
one in-flight job per design at a time:

* **Admission** is bounded by ``queue_depth`` across the whole server.
  A submit that would exceed it is rejected *immediately* with the typed
  ``queue_full`` error (and a top-level ``rejected`` marker on the wire)
  — back-pressure is explicit, never an unbounded buffer.  ``status``
  jobs bypass the queue: they read counters only and answer inline, so
  a saturated server can still be observed.
* **Ordering**: each design has a FIFO queue drained by one worker
  coroutine; jobs for the same design serialize in *submission order*,
  jobs for different designs overlap on the thread pool.  ``submit``
  enqueues synchronously before its first ``await`` — callers that
  submit in a deterministic order get deterministic per-design execution
  order, which is what makes concurrent serving bit-identical to serial.
* **Faults**: a handler exception fails that job only (typed
  ``job_failed`` response); the worker, the session, and the queue keep
  going.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

from repro import obs
from repro.serve.protocol import (
    ERR_JOB_FAILED,
    ERR_QUEUE_FULL,
    ERR_UNKNOWN_DESIGN,
    ERR_UNKNOWN_KIND,
    JOB_KINDS,
    JobError,
    JobRequest,
    JobResponse,
    ProtocolError,
    decode_line,
    encode_line,
)
from repro.serve.registry import DesignRegistry


class ComposeServer:
    """A bounded-queue job server over a :class:`DesignRegistry`."""

    def __init__(
        self,
        registry: DesignRegistry,
        queue_depth: int = 64,
        executor_threads: int | None = None,
    ) -> None:
        self.registry = registry
        self.queue_depth = queue_depth
        self._threads = executor_threads or max(2, len(registry))
        self._executor: ThreadPoolExecutor | None = None
        self._queues: dict[str, asyncio.Queue] = {}
        self._workers: list[asyncio.Task] = []
        self._inflight = 0
        self._started = False
        self._tcp_server: asyncio.AbstractServer | None = None
        self.started_unix = time.time()
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_rejected = 0

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Spawn the per-design workers (idempotent)."""
        if self._started:
            return
        self._executor = ThreadPoolExecutor(
            max_workers=self._threads, thread_name_prefix="repro-serve"
        )
        loop = asyncio.get_running_loop()
        for name in self.registry.names():
            queue: asyncio.Queue = asyncio.Queue()
            self._queues[name] = queue
            self._workers.append(loop.create_task(self._design_worker(name, queue)))
        self._started = True

    async def serve(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Additionally open the TCP listener; returns the bound address."""
        await self.start()
        self._tcp_server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        sock = self._tcp_server.sockets[0]
        addr = sock.getsockname()
        return addr[0], addr[1]

    async def aclose(self) -> None:
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers = []
        self._queues = {}
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._started = False

    # -- submission ---------------------------------------------------------

    async def submit(self, request: JobRequest) -> JobResponse:
        """Validate, admit, and await one job.

        The rejection/enqueue decision and the enqueue itself happen
        *before* the first ``await`` — submission order is queue order.
        """
        if request.kind not in JOB_KINDS:
            return JobResponse.failure(
                request,
                ERR_UNKNOWN_KIND,
                f"unknown kind {request.kind!r} (valid: {', '.join(JOB_KINDS)})",
            )
        if request.kind == "status" and request.design is None:
            return JobResponse.success(request, self.stats())
        if request.design is None or request.design not in self.registry:
            return JobResponse.failure(
                request,
                ERR_UNKNOWN_DESIGN,
                f"unknown design {request.design!r} "
                f"(registered: {', '.join(self.registry.names()) or 'none'})",
            )
        if request.kind == "status":
            return JobResponse.success(
                request, self.registry.entry(request.design).stats()
            )
        if not self._started:
            await self.start()
        if self._inflight >= self.queue_depth:
            self.jobs_rejected += 1
            obs.get_registry().counter("serve.jobs.rejected").inc()
            return JobResponse.failure(
                request,
                ERR_QUEUE_FULL,
                f"queue full ({self._inflight}/{self.queue_depth} jobs in flight)",
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight += 1
        obs.get_registry().gauge("serve.queue.inflight").set(self._inflight)
        self._queues[request.design].put_nowait((request, future))
        return await future

    # -- internals ----------------------------------------------------------

    async def _design_worker(self, name: str, queue: asyncio.Queue) -> None:
        loop = asyncio.get_running_loop()
        while True:
            request, future = await queue.get()
            try:
                response = await loop.run_in_executor(
                    self._executor, self._run_job, request
                )
            except asyncio.CancelledError:
                if not future.done():
                    future.cancel()
                raise
            finally:
                self._inflight -= 1
                obs.get_registry().gauge("serve.queue.inflight").set(self._inflight)
            if response.ok:
                self.jobs_done += 1
            else:
                self.jobs_failed += 1
            if not future.done():
                future.set_result(response)

    def _run_job(self, request: JobRequest) -> JobResponse:
        """Thread-side execution: typed failures stay typed, anything else
        becomes ``job_failed`` — for this job only."""
        try:
            return JobResponse.success(request, self.registry.run_job(request))
        except JobError as exc:
            return JobResponse.failure(request, exc.code, str(exc))
        except Exception as exc:
            obs.get_registry().counter("serve.jobs.failed").inc()
            return JobResponse.failure(
                request, ERR_JOB_FAILED, f"{type(exc).__name__}: {exc}"
            )

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One JSON-lines client; requests may pipeline, responses carry the
        request id (completion order — same-design requests keep their
        submission order through the design queue)."""
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()

        async def answer(line: bytes) -> None:
            try:
                request = JobRequest.from_wire(decode_line(line))
            except ProtocolError as exc:
                response = JobResponse(
                    id="", kind="?", ok=False, error_code="bad_request", error=str(exc)
                )
            else:
                response = await self.submit(request)
            async with write_lock:
                writer.write(encode_line(response.to_wire()))
                await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.get_running_loop().create_task(answer(line))
                pending.add(task)
                task.add_done_callback(pending.discard)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        data = {
            "uptime_seconds": round(time.time() - self.started_unix, 3),
            "queue_depth": self.queue_depth,
            "inflight": self._inflight,
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "jobs_rejected": self.jobs_rejected,
            "threads": self._threads,
        }
        data.update(self.registry.stats())
        return data

    def build_manifest(self) -> dict:
        """The run's durable record (validated ``repro.obs.manifest/1``)."""
        return obs.build_manifest(
            design={"name": "repro.serve", "designs": self.registry.names()},
            config={
                "queue_depth": self.queue_depth,
                "threads": self._threads,
            },
            flow=self.stats(),
        )
