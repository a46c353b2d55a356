(* Host-time measurement shared by every part of the benchmark: the clock,
   the median/quartile summary each metric is reported with, the span
   recorder of traced runs, and the small JSON writers the output uses. *)

(* lint: allow no-wallclock — benchmark harness; times whole calls into the
   simulator from outside, never simulation logic *)
let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ---- summaries --------------------------------------------------------- *)

type summary = { median : float; q1 : float; q3 : float; n : int }

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles xs ~n:4], so spreads printed here match the ones
   computed from this program's JSON output by the usual tooling. *)
let summarise xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then { median = nan; q1 = nan; q3 = nan; n }
  else
    let median =
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
    in
    if n = 1 then { median; q1 = median; q3 = median; n }
    else
      let cut i =
        let m = n + 1 in
        let j = max 1 (min (n - 1) (i * m / 4)) in
        let delta = float_of_int ((i * m) - (j * 4)) in
        ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
      in
      { median; q1 = cut 1; q3 = cut 3; n }

let median xs = (summarise xs).median

(* Interquartile range as a share of the median. *)
let rel_iqr s = if s.median = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.median

(* ---- spans ------------------------------------------------------------- *)

(* Spans are recorded only in traced runs, from this directory's code around
   the calls it makes into each layer; the simulator itself carries none.
   They stay in memory and are appended to the JSONL file when the process
   that recorded them ends. [trace] groups the spans of one workload run. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  trace : string;
  start : float;
  stop : float;
}

let tracing = ref false
let trace_id = ref ""
let recorded : span list ref = ref []
let next_id = ref 0
let open_span = ref 0

(* A span whose interval was measured elsewhere, such as a job's wall time
   reported by the worker pool. *)
let add_span ~parent ~name ~start ~stop =
  if !tracing then begin
    incr next_id;
    recorded :=
      { id = !next_id; parent; name; trace = !trace_id; start; stop } :: !recorded
  end

(* [span name f] times [f] as a child of the innermost open span. *)
let span name f =
  if not !tracing then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = !open_span in
    open_span := id;
    let start = now () in
    let finish () =
      open_span := parent;
      recorded :=
        { id; parent; name; trace = !trace_id; start; stop = now () }
        :: !recorded
    in
    Fun.protect ~finally:finish f
  end

(* Span ids are unique per process; the pid keeps them unique in a file
   written by several processes. *)
let flush_spans path =
  if !recorded <> [] then begin
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    let pid = Unix.getpid () in
    List.iter
      (fun s ->
        Printf.fprintf oc
          {|{"id":"%d.%d","parent":%s,"name":"%s","trace":"%s","start_s":%.6f,"end_s":%.6f,"dur_ms":%.3f}|}
          pid s.id
          (if s.parent = 0 then "null" else Printf.sprintf {|"%d.%d"|} pid s.parent)
          s.name s.trace s.start s.stop
          ((s.stop -. s.start) *. 1e3);
        output_char oc '\n')
      (List.rev !recorded);
    close_out oc;
    recorded := []
  end

(* ---- output ------------------------------------------------------------ *)

(* Metric values keep every digit; JSON has no nan, so a missing value is
   null (and fails the finiteness check of the self-test). *)
let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}"

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan
