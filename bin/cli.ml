(* The front the three CLIs share: reading a source file, the runtime
   flags that build one Hostrt.Rt.config, the front-end error reporter
   and the Chrome-trace writer.  Each tool passes its own name (the
   prefix of every message) and its own defaults. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Bad input: one message line on stderr, exit 1. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 1)
    fmt

(* [--devices --streams --mem-policy --faults --fault-seed --max-retries]
   over [defaults]; the other fields of [defaults] pass through. *)
let runtime_config ~tool ~(defaults : Hostrt.Rt.config) : Hostrt.Rt.config Term.t =
  let devices =
    Arg.(
      value
      & opt int defaults.devices
      & info [ "devices" ] ~docv:"N"
          ~doc:
            "Number of simulated device instances, each with its own driver, data environment \
             and stream pool.  Default-device distribute launches are sharded across the farm \
             by compute weight; device(n) clauses (and ompiserve's sessions, round-robin) pin \
             to one device, and omp_get_num_devices() reports N")
  in
  let streams =
    Arg.(
      value
      & opt int defaults.streams
      & info [ "streams" ] ~docv:"N"
          ~doc:
            "Size of each device's stream pool used by target nowait regions; 1 serializes all \
             async work on a single stream")
  in
  let mem_policy =
    Arg.(
      value
      & opt string (Hostrt.Mempolicy.sel_name defaults.mem_policy)
      & info [ "mem-policy" ] ~docv:"MODE"
          ~doc:
            "Memory mode: $(b,auto) classifies each mapped buffer as copy, elide or zerocopy \
             from its observed history and the device cost model; $(b,copy), $(b,elide) or \
             $(b,zerocopy) force that mode for every buffer.  $(b,elide) parks released device \
             buffers in the resident cache and skips transfers whose source and destination \
             provably hold the same bytes (map(always, ...) forces the transfer); \
             $(b,zerocopy) maps through pinned host memory so kernels access the shared LPDDR4 \
             in place, trading copy time for uncached device access")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            ("Inject deterministic device faults and exercise the recovery path (retry with \
              backoff, JIT-cache invalidation, host fallback); results must stay \
              bit-identical. " ^ Hostrt.Faults.spec_syntax))
  in
  let fault_seed =
    Arg.(
      value
      & opt int defaults.fault_seed
      & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Seed for probabilistic fault rules")
  in
  let max_retries =
    Arg.(
      value
      & opt (some int) defaults.max_retries
      & info [ "max-retries" ] ~docv:"N"
          ~doc:"Bound the per-operation retries of the fault recovery policy (default 3)")
  in
  let make devices streams mem_policy faults fault_seed max_retries =
    let faults =
      match faults with
      | None -> defaults.faults
      | Some spec -> (
        match Hostrt.Faults.parse spec with
        | Ok rules -> rules
        | Error msg -> fail "%s: bad --faults spec: %s\n%s" tool msg Hostrt.Faults.spec_syntax)
    in
    if streams <= 0 then fail "%s: --streams must be positive (got %d)" tool streams;
    if devices <= 0 then fail "%s: --devices must be positive (got %d)" tool devices;
    let mem_policy =
      match Hostrt.Mempolicy.sel_of_string mem_policy with
      | Some sel -> sel
      | None -> fail "%s: bad --mem-policy %s (want auto|copy|elide|zerocopy)" tool mem_policy
    in
    { defaults with devices; streams; mem_policy; faults; fault_seed; max_retries }
  in
  Term.(const make $ devices $ streams $ mem_policy $ faults $ fault_seed $ max_retries)

(* Run [f], reporting a front-end or runtime error in [input] as one
   located line on stderr and exit 1. *)
let report_errors ~input f =
  try f () with
  | Minic.Lexer.Lex_error (msg, loc) ->
    fail "%s:%d:%d: lexical error: %s" input loc.Minic.Token.line loc.Minic.Token.col msg
  | Minic.Parser.Parse_error (msg, loc) ->
    fail "%s:%d:%d: syntax error: %s" input loc.Minic.Token.line loc.Minic.Token.col msg
  | Omp.Pragma_parser.Pragma_error msg -> fail "%s: OpenMP pragma error: %s" input msg
  | Translator.Pipeline.Translate_error msg | Translator.Region.Unsupported msg ->
    fail "%s: translation error: %s" input msg
  | Cinterp.Interp.Runtime_error msg
  | Machine.Addr.Addr_error msg
  | Machine.Mem.Bad_access msg
  | Devrt.Api.Devrt_error msg ->
    fail "%s: runtime error: %s" input msg

(* Write [tr] as Chrome-trace JSON; [true] once written.  An unwritable
   path is reported on stderr and leaves the run's exit status alone. *)
let write_trace ~tool path tr : bool =
  match Perf.Chrome_trace.write_file path tr with
  | () -> true
  | exception Sys_error msg ->
    Printf.eprintf "%s: cannot write trace: %s\n" tool msg;
    false
