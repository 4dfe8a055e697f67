(** [ompiserve]: a long-lived offload server multiplexing many
    simulated clients onto one device context.

    The server owns a single runtime (one device, one data environment,
    one stream pool).  Each client session opens a {e persistent data
    environment} — its long-lived input arrays are mapped once, target
    -enter-data style, so per-request maps of those ranges hit the
    present table and move nothing — then issues a stream of offload
    requests with Poisson arrivals on the simulated clock.  Requests
    from independent sessions multiplex onto the stream pool (the PR 4
    dependency tracker serializes cross-session range conflicts and
    within-session read-after-write chains); transfers of one request
    overlap compute of another on the device's copy/compute engines.
    Closed sessions park their buffers in the PR 5 resident cache,
    which is shared across sessions and generations: re-opening a
    session elides the warm-up H2D.

    Every response is verified bit-identical against a sequential host
    reference computed ahead of serving, including under fault
    injection (retry/backoff and host fallback compose with the load).
    The request lifecycle emits cat:"serve" trace instants:
    enqueue → admit → map → launch → complete. *)

(** Request classes served:
    - [Matvec]: n×n matrix persistent in the session's data
      environment; each request streams a fresh x payload in and an
      accumulating y in/out (compute-bound, persistent-environment
      win);
    - [Ingest]: each request streams a fresh rows×{!ingest_cols} slab
      to the device and reduces it against a persistent x (transfer-
      bound: the overlap win);
    - [Scale]: light elementwise update of a small in/out vector
      (latency-sensitive chaff). *)
type app_kind = Matvec | Ingest | Scale

val app_name : app_kind -> string

(** Columns of an [Ingest] slab (rows come from [ss_n]). *)
val ingest_cols : int

(** The OpenMP C source of a service class: one function, {!entry_of}
    the class, holding one [nowait] combined target region.  Its
    parameters are [(int n, float A[], float x[], float y[])] for
    [Matvec], [(int rows, int cols, float S[], float x[], float y[])]
    for [Ingest] and [(int n, float y[])] for [Scale]. *)
val source_of : app_kind -> string

(** The entry function of {!source_of}: ["serve_" ^ app_name k]. *)
val entry_of : app_kind -> string

type session_spec = {
  ss_tag : int;
      (** client identity: seeds this session's deterministic array
          contents and payloads, independent of its position in the
          workload — running the same spec alone reproduces the same
          data as running it in a mix *)
  ss_app : app_kind;
  ss_n : int;  (** problem size: matrix order / slab rows / vector length *)
  ss_requests : int;  (** requests this client issues per generation *)
  ss_rate_hz : float;  (** Poisson arrival rate of this client *)
  ss_shared_off : int option;
      (** [Matvec] only: draw the persistent matrix from the server's
          shared read-only input pool at this float offset — sessions
          whose slices overlap exercise cross-session present-table
          sharing and tracker arbitration *)
  ss_device : int;
      (** device the session is pinned to: its persistent environment
          lives on that device and every request resolves there (0 on a
          single-device server) *)
}

type config = {
  cf_rt : Hostrt.Rt.config;
      (** the runtime's settings (devices, streams, memory mode, executor,
          faults, retries; see {!Hostrt.Rt.config}), applied to every
          device when the server's runtime is built.  Sessions pin to a
          device via [ss_device] (and must name one below
          [cf_rt.devices]).  Default: {!Hostrt.Rt.default_config} with
          4 streams, [Forced Elide] (so closed sessions park their
          buffers) and fault seed 7 *)
  cf_max_inflight : int;  (** admission bound on in-flight requests *)
  cf_generations : int;
      (** open-serve-close cycles: generation ≥ 2 re-opens sessions
          against the resident cache *)
  cf_seed : int;  (** arrival-process seed *)
  cf_resident_cap_bytes : int option;  (** resident-cache byte budget override *)
  cf_trace : bool;  (** attach a trace ring and emit cat:"serve" events *)
}

val default_config : config

(** A mixed default workload: [smoke] keeps it small enough for CI. *)
val default_sessions : smoke:bool -> session_spec list

type session_report = {
  sr_id : int;
  sr_app : string;
  sr_n : int;
  sr_requests : int;  (** completed requests (over all generations) *)
  sr_ok : bool;  (** every response bit-identical to the host reference *)
  sr_env_hits : int;
      (** request map operations satisfied by the session's persistent
          data environment *)
  sr_env_lookups : int;
  sr_mean_ms : float;  (** mean request latency *)
  sr_output_bits : int32 array;
      (** final output array of the last generation, as IEEE bits — the
          isolation property compares these across interleavings *)
}

(** The serving statistics, and the farm totals (elisions, policy rows,
    resident buffers, faults, dead devices) read from the run report
    ({!Hostrt.Run_report}) at the end of the run. *)
type report = {
  rp_requests : int;
  rp_completed : int;
  rp_busy_s : float;  (** summed serving spans (first arrival → last completion) *)
  rp_throughput_rps : float;
  rp_p50_ms : float;
  rp_p95_ms : float;
  rp_p99_ms : float;
  rp_mean_queue_depth : float;  (** sampled at admissions *)
  rp_max_queue_depth : int;
  rp_env_hit_rate : float;  (** persistent-environment hit rate over all requests *)
  rp_open_elisions : int;
      (** session-open H2Ds elided via the resident cache (warm
          re-opens in generation ≥ 2) *)
  rp_elided_h2d : int;  (** total, summed over every device's data environment *)
  rp_elided_d2h : int;
  rp_elided_pages : int;
      (** clean pages skipped by partial transfers (h2d + d2h), summed
          over devices *)
  rp_policy : (int * ((int * int) * (string * int) list) list) list;
      (** per device: per-buffer tally of cold-map mode decisions
          (devices with no decisions omitted) *)
  rp_resident_buffers_end : int;  (** summed over devices *)
  rp_faults_injected : int;
  rp_device_dead : bool;  (** true when any device of the farm is dead *)
  rp_all_identical : bool;
  rp_sessions : session_report list;
}

(** Run the server over the workload; returns the report and, when
    [cf_trace] is set, the trace ring (for Chrome-trace export).
    @raise Invalid_argument on an empty workload, a non-positive
    inflight bound / generation count / device count / stream count, or
    a session pinned outside the farm *)
val run : config -> session_spec list -> report * Perf.Trace.t option
