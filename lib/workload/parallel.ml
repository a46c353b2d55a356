type job = Runner.protocol * Scenario.t

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

(* ---- defaults ---------------------------------------------------------- *)

let default_jobs () =
  match Sys.getenv_opt "PASE_JOBS" with
  | None | Some "" -> Domain.recommended_domain_count ()
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 1 -> n
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf "PASE_JOBS must be an integer >= 1, got %S" v))

let default_cache_dir () =
  match Sys.getenv_opt "PASE_CACHE_DIR" with
  | Some ("" | "0" | "none") -> None
  | Some d -> Some d
  | None -> Some ".pase-cache"

(* ---- configuration digests --------------------------------------------- *)

(* A digest of the running binary stands in for a code version: any rebuild
   (simulator change, parameter-table change, ...) invalidates the cache. *)
let code_version =
  lazy
    (try Digest.to_hex (Digest.file Sys.executable_name)
     with Sys_error _ | Unix.Unix_error _ ->
       Printf.sprintf "codec-v%d-only" Result_codec.version)

let fl = Printf.sprintf "%.17g"

let scheduling_key = function
  | Config.Srpt -> "srpt"
  | Config.Edf -> "edf"
  | Config.Task_aware -> "task"

let config_key (c : Config.t) =
  String.concat ","
    [
      Printf.sprintf "queues=%d" c.Config.num_queues;
      Printf.sprintf "arb=%s" (fl c.Config.arb_period);
      Printf.sprintf "prune=%b" c.Config.early_pruning;
      Printf.sprintf "deleg=%b/%s" c.Config.delegation
        (fl c.Config.delegation_period);
      Printf.sprintf "local=%b" c.Config.local_only;
      Printf.sprintf "probes=%b" c.Config.use_probes;
      Printf.sprintf "ref=%b" c.Config.use_ref_rate;
      Printf.sprintf "sched=%s" (scheduling_key c.Config.scheduling);
      Printf.sprintf "rto-low=%s" (fl c.Config.rto_low);
      Printf.sprintf "ctrl-loss=%s" (fl c.Config.ctrl_loss_prob);
      Printf.sprintf "expiry=%d" c.Config.state_expiry_rounds;
      Printf.sprintf "qlim=%d" c.Config.queue_limit_pkts;
    ]

let protocol_key = function
  | Runner.Pase cfg -> "PASE{" ^ config_key cfg ^ "}"
  | (Runner.Dctcp | Runner.D2tcp | Runner.L2dct | Runner.Pfabric | Runner.Pdq
    | Runner.D3) as p ->
      Runner.name p

(* A distribution's identity: its name and mean, plus the breakpoints of an
   empirical CDF table, so two tables that share a file name and a mean but
   differ in shape never share a cache entry. The breakpoints go in as raw
   float bits: exact, and cheap enough for the cache-hit path. *)
let dist_key (d : Dist.t) =
  let b = Buffer.create 64 in
  Buffer.add_string b d.Dist.name;
  Buffer.add_char b '/';
  Buffer.add_string b (fl d.Dist.mean);
  Buffer.add_char b '/';
  Buffer.add_string b (string_of_int (List.length d.Dist.points));
  Buffer.add_char b ':';
  List.iter
    (fun (v, p) ->
      Buffer.add_int64_le b (Int64.bits_of_float v);
      Buffer.add_int64_le b (Int64.bits_of_float p))
    d.Dist.points;
  Buffer.contents b

let pattern_key = function
  | Scenario.Left_right -> "left-right"
  | Scenario.Intra_rack n -> Printf.sprintf "intra-rack:%d" n
  | Scenario.Incast { hosts; aggregators; fanin = None } ->
      Printf.sprintf "incast:%d/%d" hosts aggregators
  | Scenario.Incast { hosts; aggregators; fanin = Some d } ->
      Printf.sprintf "incast:%d/%d/fanin=%s" hosts aggregators (dist_key d)
  | Scenario.Fat_tree k -> Printf.sprintf "fat-tree:%d" k
  | Scenario.Hotspot { k; hot_racks; hot_weight } ->
      Printf.sprintf "hotspot:%d/%d/%s" k hot_racks (fl hot_weight)
  | Scenario.Traffic_matrix { k } -> Printf.sprintf "traffic-matrix:%d" k
  | Scenario.Testbed -> "testbed"

let scenario_key (s : Scenario.t) =
  let opt_dist = function None -> "-" | Some d -> dist_key d in
  String.concat "|"
    [
      s.Scenario.name;
      pattern_key s.Scenario.pattern;
      "size=" ^ dist_key s.Scenario.size_bytes;
      "deadline=" ^ opt_dist s.Scenario.deadline_s;
      "load=" ^ fl s.Scenario.load;
      Printf.sprintf "flows=%d" s.Scenario.num_flows;
      Printf.sprintf "bg=%d" s.Scenario.background_flows;
      Printf.sprintf "seed=%d" s.Scenario.seed;
      "faults=" ^ Fault.spec_key s.Scenario.faults;
      (match s.Scenario.coflow with
      | None -> "coflow=-"
      | Some { Scenario.width; deadline_s } ->
          Printf.sprintf "coflow=%s/%s" (dist_key width) (opt_dist deadline_s));
    ]

let job_key ?(profile = false) ?hybrid proto scenario =
  let descr =
    String.concat "\n"
      [
        Lazy.force code_version;
        Printf.sprintf "codec=%d" Result_codec.version;
        protocol_key proto;
        scenario_key scenario;
        (* Profiled results embed sched_profile, so they cache separately. *)
        Printf.sprintf "profile=%b" profile;
        (* Hybrid runs (and hybrid-tagged packet runs — the classifier tag
           lands in every record) cache separately per threshold. *)
        (match (hybrid : Runner.hybrid option) with
        | None -> "hybrid=-"
        | Some h ->
            Printf.sprintf "hybrid=%b/%d" h.Runner.enabled
              h.Runner.fluid_threshold);
      ]
  in
  Digest.to_hex (Digest.string descr)

(* ---- on-disk cache ------------------------------------------------------ *)

let cache_path dir key = Filename.concat dir (key ^ ".res")

let cache_load dir key =
  let path = cache_path dir key in
  match
    if Sys.file_exists path then (
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic))))
    else None
  with
  | None -> None
  | Some blob -> (
      (* Stale or foreign blobs are treated as misses and overwritten. *)
      match Result_codec.decode blob with Ok r -> Some r | Error _ -> None)
  (* A cache entry that vanishes or truncates mid-read is a miss, nothing
     more; anything else (Out_of_memory, ...) must propagate. *)
  | exception (Sys_error _ | End_of_file | Unix.Unix_error _) -> None

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let cache_store dir key r =
  try
    mkdir_p dir;
    let path = cache_path dir key in
    (* Atomic publish: concurrent writers race benignly on the rename. *)
    let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (Result_codec.encode r));
    Sys.rename tmp path
  with Sys_error _ | Unix.Unix_error _ -> ()
  (* a cold cache is always safe: a full disk or permission error only
     costs a re-simulation next run *)

(* ---- worker pool -------------------------------------------------------- *)

let write_all fd s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    let n =
      restart_on_eintr (fun () ->
          Unix.write_substring fd s !pos (len - !pos))
    in
    pos := !pos + n
  done

type worker = { pid : int; idx : int; buf : Buffer.t; started : float }

(* Fork one worker per pending job, at most [jobs] live at a time. Each
   worker simulates its configuration and streams the encoded result back
   over its pipe; the parent multiplexes reads with [select] so a worker
   never blocks on a full pipe buffer. *)
let run_pool ~jobs ~simulate pending ~on_done =
  let queue = ref pending in
  let active : (Unix.file_descr, worker) Hashtbl.t = Hashtbl.create jobs in
  let spawn idx =
    let rd, wr = Unix.pipe () in
    (* Flush before forking so buffered output is not emitted twice. *)
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        Unix.close rd;
        let status =
          match write_all wr (Result_codec.encode (simulate idx)) with
          | () -> 0
          | exception exn ->
              Printf.eprintf "[parallel] worker for job %d died: %s\n%!" idx
                (Printexc.to_string exn);
              1
        in
        (try Unix.close wr with Unix.Unix_error _ -> ());
        (* _exit, not exit: at_exit in a fork would rerun the parent's
           teardown (and flush its channels) a second time. *)
        Unix._exit status
    | pid ->
        Unix.close wr;
        Hashtbl.replace active rd
          (* lint: allow no-wallclock — worker elapsed-time diagnostics only *)
          { pid; idx; buf = Buffer.create 8192; started = Unix.gettimeofday () }
  in
  let kill_all () =
    (* Best-effort teardown on the error path: descriptors may already be
       closed and children already reaped, so EBADF/ESRCH/ECHILD are
       expected here — but only Unix errors are. *)
    Det_tbl.iter
      (fun fd w ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (restart_on_eintr (fun () -> Unix.waitpid [] w.pid))
        with Unix.Unix_error _ -> ())
      active;
    Hashtbl.reset active
  in
  let reap fd =
    let w = Hashtbl.find active fd in
    Unix.close fd;
    Hashtbl.remove active fd;
    let _, status = restart_on_eintr (fun () -> Unix.waitpid [] w.pid) in
    (match status with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED n ->
        failwith (Printf.sprintf "parallel worker for job %d exited with %d" w.idx n)
    | Unix.WSIGNALED n | Unix.WSTOPPED n ->
        failwith
          (Printf.sprintf "parallel worker for job %d killed by signal %d" w.idx n));
    match Result_codec.decode (Buffer.contents w.buf) with
    (* lint: allow no-wallclock — worker elapsed-time diagnostics only *)
    | Ok r -> on_done w.idx r (Unix.gettimeofday () -. w.started)
    | Error e ->
        failwith
          (Printf.sprintf "parallel worker for job %d sent an unreadable result: %s"
             w.idx e)
  in
  let chunk = Bytes.create 65536 in
  let step () =
    while Hashtbl.length active < jobs && !queue <> [] do
      match !queue with
      | [] -> ()
      | idx :: rest ->
          queue := rest;
          spawn idx
    done;
    if Hashtbl.length active > 0 then begin
      let fds = Det_tbl.fold (fun fd _ acc -> fd :: acc) active [] in
      let ready, _, _ =
        restart_on_eintr (fun () -> Unix.select fds [] [] (-1.))
      in
      List.iter
        (fun fd ->
          let w = Hashtbl.find active fd in
          let n =
            restart_on_eintr (fun () -> Unix.read fd chunk 0 (Bytes.length chunk))
          in
          if n > 0 then Buffer.add_subbytes w.buf chunk 0 n else reap fd)
        ready
    end
  in
  Fun.protect
    ~finally:(fun () -> kill_all ())
    (fun () ->
      while Hashtbl.length active > 0 || !queue <> [] do
        step ()
      done)

(* ---- driver ------------------------------------------------------------- *)

let run_jobs ?jobs ?cache_dir ?(profile = false) ?hybrid
    ?(on_result = fun _ ~cached:_ ~wall:_ _ -> ()) pairs =
  let jobs =
    match jobs with
    | Some j when j < 1 -> invalid_arg "Parallel.run_jobs: jobs must be >= 1"
    | Some j -> j
    | None -> default_jobs ()
  in
  let cache_dir =
    match cache_dir with Some c -> c | None -> default_cache_dir ()
  in
  let arr = Array.of_list pairs in
  let n = Array.length arr in
  let keys = Array.map (fun (p, s) -> job_key ~profile ?hybrid p s) arr in
  let results : Runner.result option array = Array.make n None in
  let settle i ~cached ~wall r =
    results.(i) <- Some r;
    on_result i ~cached ~wall r
  in
  (* 1. Serve what the on-disk cache already has. *)
  (match cache_dir with
  | None -> ()
  | Some dir ->
      Array.iteri
        (fun i key ->
          match cache_load dir key with
          | Some r -> settle i ~cached:true ~wall:0. r
          | None -> ())
        keys);
  (* 2. Deduplicate the misses: identical configurations run once. *)
  let rep : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let pending = ref [] in
  for i = n - 1 downto 0 do
    if Option.is_none results.(i) && not (Hashtbl.mem rep keys.(i)) then begin
      Hashtbl.replace rep keys.(i) i;
      pending := i :: !pending
    end
  done;
  let publish i r wall =
    settle i ~cached:false ~wall r;
    (match cache_dir with
    | Some dir -> cache_store dir keys.(i) r
    | None -> ())
  in
  (* 3. Simulate the representatives: in-process when [jobs = 1] or for a
     single job, over the fork pool otherwise. *)
  let simulate i =
    let proto, scenario = arr.(i) in
    Runner.run ~profile ?hybrid proto scenario
  in
  if jobs = 1 || List.compare_length_with !pending 1 <= 0 then
    List.iter
      (fun i ->
        (* lint: allow no-wallclock — job elapsed-time diagnostics only *)
        let t0 = Unix.gettimeofday () in
        let r = simulate i in
        (* lint: allow no-wallclock — job elapsed-time diagnostics only *)
        publish i r (Unix.gettimeofday () -. t0))
      !pending
  else run_pool ~jobs ~simulate !pending ~on_done:publish;
  (* 4. Fan shared results back out to duplicate configurations. *)
  Array.to_list
    (Array.mapi
       (fun i r ->
         match r with
         | Some r -> r
         | None -> (
             match Hashtbl.find_opt rep keys.(i) with
             | Some j -> (
                 match results.(j) with
                 | Some r ->
                     settle i ~cached:true ~wall:0. r;
                     r
                 | None -> assert false)
             | None -> assert false))
       results)
