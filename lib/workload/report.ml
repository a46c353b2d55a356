(* The "explain" layer behind [pase_sim report]: joins a result JSON with
   the optional per-flow attribution JSONL and fabric-series JSONL spills
   from the same run (plus, optionally, a second result to diff against)
   and renders the story — where did the p99 flow's time go, which links
   and queues ran hot, and how two protocols' delay budgets differ.

   Everything here is a pure function of the parsed inputs: rows are sorted
   with explicit comparators and floats printed with fixed formats, so the
   same inputs always produce byte-identical output (CI diffs it). *)

let components =
  [ "serialization"; "propagation"; "queueing"; "arb_wait"; "rto_stall" ]

type flow_rec = {
  flow : int;
  size_pkts : int;
  fct : float;
  comps : (string * float) list;  (* in [components] order *)
  timeouts : int;
}

type link_stat = {
  label : string;
  mean_util : float;
  peak_util : float;
  peak_pkts : float;
  drops : float;
}

type t = {
  run : Json.t;
  flows : flow_rec list;  (* attribution records, input order *)
  links : link_stat list;  (* per-link series rollup, label order *)
  series_samples : int;
  vs : Json.t option;
  top : int;
}

(* ---- input loading ------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file path =
  match Json.parse (read_file path) with
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let parse_lines path =
  let text = read_file path in
  let lines = String.split_on_char '\n' text in
  List.filteri
    (fun i line ->
      match String.trim line with
      | "" -> false
      | _ -> ignore i; true)
    lines
  |> List.map (fun line ->
         match Json.parse line with
         | Ok v -> v
         | Error e -> failwith (Printf.sprintf "%s: %s" path e))

(* ---- attribution rollup ------------------------------------------------- *)

let flow_of_json j =
  let num key = Option.value ~default:nan (Json.float_member key j) in
  {
    flow = int_of_float (Option.value ~default:(-1.) (Json.float_member "flow" j));
    size_pkts =
      int_of_float (Option.value ~default:0. (Json.float_member "size_pkts" j));
    fct = num "fct";
    comps = List.map (fun c -> (c, num c)) components;
    timeouts =
      int_of_float (Option.value ~default:0. (Json.float_member "timeouts" j));
  }

let comp_total flows c =
  List.fold_left
    (fun acc f -> acc +. List.assoc c f.comps)
    0. flows

(* Nearest-rank percentile by FCT over the attribution records. *)
let flow_at_percentile flows p =
  match flows with
  | [] -> None
  | _ ->
      let arr = Array.of_list flows in
      Array.sort (fun a b -> Float.compare a.fct b.fct) arr;
      let n = Array.length arr in
      let rank =
        max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1))
      in
      Some arr.(rank)

let max_flow_residual flows =
  List.fold_left
    (fun acc f ->
      let sum =
        List.fold_left (fun s (_, v) -> s +. v) 0. f.comps
      in
      Float.max acc (Float.abs (f.fct -. sum)))
    0. flows

(* ---- series rollup ------------------------------------------------------ *)

(* Metric names: link.<label>.util | q.<label>.pkts | q.<label>.drops | ... *)
let split_metric m =
  match String.split_on_char '.' m with
  | "link" :: rest when List.length rest >= 2 ->
      let label =
        String.concat "." (List.filteri (fun i _ -> i < List.length rest - 1) rest)
      in
      Some (label, `Util)
  | "q" :: rest when List.length rest >= 2 -> (
      let label =
        String.concat "." (List.filteri (fun i _ -> i < List.length rest - 1) rest)
      in
      match List.nth rest (List.length rest - 1) with
      | "pkts" when not (String.contains label '.') -> Some (label, `Pkts)
      | "drops" -> Some (label, `Drops)
      | _ -> None)
  | _ -> None

let rollup_series samples =
  let tbl : (string, float ref * int ref * float ref * float ref * float ref) Hashtbl.t =
    Hashtbl.create 64
  in
  (* util_sum, util_n, util_peak, pkts_peak, drops_sum per label *)
  let cell label =
    match Hashtbl.find_opt tbl label with
    | Some c -> c
    | None ->
        let c = (ref 0., ref 0, ref 0., ref 0., ref 0.) in
        Hashtbl.replace tbl label c;
        c
  in
  List.iter
    (fun s ->
      match Json.string_member "metric" s with
      | None -> ()
      | Some m -> (
          let v = Option.value ~default:0. (Json.float_member "v" s) in
          match split_metric m with
          | Some (label, `Util) ->
              let usum, un, upeak, _, _ = cell label in
              usum := !usum +. v;
              incr un;
              upeak := Float.max !upeak v
          | Some (label, `Pkts) ->
              let _, _, _, ppeak, _ = cell label in
              ppeak := Float.max !ppeak v
          | Some (label, `Drops) ->
              let _, _, _, _, d = cell label in
              d := !d +. v
          | None -> ()))
    samples;
  let stats =
    Det_tbl.fold ~cmp:String.compare
      (fun label (usum, un, upeak, ppeak, drops) acc ->
        {
          label;
          mean_util = (if !un = 0 then 0. else !usum /. float_of_int !un);
          peak_util = !upeak;
          peak_pkts = !ppeak;
          drops = !drops;
        }
        :: acc)
      tbl []
  in
  List.rev stats

(* ---- assembly ----------------------------------------------------------- *)

let build ~run ?attrib_lines ?series_lines ?vs ?(top = 5) () =
  let flows =
    match attrib_lines with
    | None -> []
    | Some lines -> List.map flow_of_json lines
  in
  let links, series_samples =
    match series_lines with
    | None -> ([], 0)
    | Some lines -> (rollup_series lines, List.length lines)
  in
  { run; flows; links; series_samples; vs; top }

let of_files ~result ?attrib ?series ?vs ?top () =
  (* An unreadable input names the argument it came in on. *)
  let load arg parse path =
    try parse path with Sys_error e -> failwith (Printf.sprintf "--%s: %s" arg e)
  in
  build
    ~run:(load "result" parse_file result)
    ?attrib_lines:(Option.map (load "attrib" parse_lines) attrib)
    ?series_lines:(Option.map (load "series" parse_lines) series)
    ?vs:(Option.map (load "vs" parse_file) vs)
    ?top ()

(* ---- rendering helpers -------------------------------------------------- *)

let json_float f =
  if Float.is_nan f || Float.abs f = Float.infinity then "null"
  else Printf.sprintf "%.17g" f

let json_of_result_field run key =
  match Json.member key run with
  | Some (Json.Str s) -> Printf.sprintf "%S" s
  | Some (Json.Num f) -> json_float f
  | Some (Json.Bool b) -> string_of_bool b
  | Some Json.Null | None -> "null"
  | Some (Json.Arr _ | Json.Obj _) -> "null"

let take n xs =
  List.filteri (fun i _ -> i < n) xs

let top_links t =
  let by_util =
    List.stable_sort
      (fun a b ->
        match Float.compare b.mean_util a.mean_util with
        | 0 -> String.compare a.label b.label
        | c -> c)
      t.links
  in
  take t.top by_util

let top_queues t =
  let by_depth =
    List.stable_sort
      (fun a b ->
        match Float.compare b.peak_pkts a.peak_pkts with
        | 0 -> String.compare a.label b.label
        | c -> c)
      t.links
  in
  take t.top by_depth

(* Coflow aggregate embedded in a v8 result; None for pre-coflow runs. *)
let coflow_obj run =
  match Json.member "coflow" run with
  | Some (Json.Obj _ as c) -> Some c
  | _ -> None

let coflow_num c key = Option.value ~default:nan (Json.float_member key c)

let vs_mean run component =
  (* mean of one component over the "all" band of a result's attrib object *)
  let ( >>= ) o f = Option.bind o f in
  Json.member "attrib" run >>= Json.member "bands" >>= Json.to_list
  >>= List.find_opt (fun b -> Json.string_member "band" b = Some "all")
  >>= Json.member "components" >>= Json.member component
  >>= Json.float_member "mean"

(* ---- JSON output -------------------------------------------------------- *)

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf {|{"report":1,"run":{|};
  List.iteri
    (fun i key ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf {|"%s":%s|} key (json_of_result_field t.run key)))
    [ "scenario"; "protocol"; "load"; "afct"; "p99"; "completed"; "censored" ];
  Buffer.add_char buf '}';
  (match t.flows with
  | [] -> ()
  | flows ->
      let n = List.length flows in
      let fct_sum = List.fold_left (fun acc f -> acc +. f.fct) 0. flows in
      let comp_sum = List.map (fun c -> (c, comp_total flows c)) components in
      Buffer.add_string buf
        (Printf.sprintf {|,"attribution":{"flows":%d,"components":{|} n);
      List.iteri
        (fun i (c, total) ->
          if i > 0 then Buffer.add_char buf ',';
          let share = if fct_sum > 0. then total /. fct_sum else nan in
          Buffer.add_string buf
            (Printf.sprintf {|"%s":{"total":%s,"share":%s}|} c
               (json_float total) (json_float share)))
        comp_sum;
      Buffer.add_string buf
        (Printf.sprintf
           {|},"check":{"afct":%s,"afct_from_components":%s,"max_flow_residual":%s}|}
           (json_of_result_field t.run "afct")
           (json_float
              (if n = 0 then nan
               else
                 List.fold_left
                   (fun acc f ->
                     acc
                     +. List.fold_left (fun s (_, v) -> s +. v) 0. f.comps)
                   0. flows
                 /. float_of_int n))
           (json_float (max_flow_residual flows)));
      (match flow_at_percentile flows 99. with
      | None -> ()
      | Some f ->
          Buffer.add_string buf
            (Printf.sprintf
               {|,"p99_flow":{"flow":%d,"size_pkts":%d,"fct":%s,"timeouts":%d,"components":{|}
               f.flow f.size_pkts (json_float f.fct) f.timeouts);
          List.iteri
            (fun i (c, v) ->
              if i > 0 then Buffer.add_char buf ',';
              Buffer.add_string buf
                (Printf.sprintf {|"%s":{"seconds":%s,"share":%s}|} c
                   (json_float v)
                   (json_float (if f.fct > 0. then v /. f.fct else nan))))
            f.comps;
          Buffer.add_string buf "}}");
      Buffer.add_char buf '}');
  (match t.links with
  | [] -> ()
  | _ ->
      Buffer.add_string buf
        (Printf.sprintf {|,"series":{"samples":%d,"hot_links":[|}
           t.series_samples);
      List.iteri
        (fun i l ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               {|{"link":"%s","mean_util":%s,"peak_util":%s}|} l.label
               (json_float l.mean_util) (json_float l.peak_util)))
        (top_links t);
      Buffer.add_string buf {|],"hot_queues":[|};
      List.iteri
        (fun i l ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf {|{"link":"%s","peak_pkts":%s,"drops":%s}|}
               l.label (json_float l.peak_pkts) (json_float l.drops)))
        (top_queues t);
      Buffer.add_string buf
        (Printf.sprintf {|],"total_drops":%s}|}
           (json_float
              (List.fold_left (fun acc l -> acc +. l.drops) 0. t.links))));
  (match coflow_obj t.run with
  | None -> ()
  | Some c ->
      Buffer.add_string buf {|,"coflow":{|};
      List.iteri
        (fun i key ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf {|"%s":%s|} key (json_float (coflow_num c key))))
        [
          "coflows"; "completed"; "censored"; "flows"; "cct_mean"; "cct_p50";
          "cct_p90"; "cct_p99"; "deadline_met"; "deadline_total";
          "deadline_met_frac";
        ];
      Buffer.add_char buf '}');
  (match t.vs with
  | None -> ()
  | Some other ->
      Buffer.add_string buf
        (Printf.sprintf {|,"vs":{"protocol":%s,"other_protocol":%s,"components":{|}
           (json_of_result_field t.run "protocol")
           (json_of_result_field other "protocol"));
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_char buf ',';
          let a = Option.value ~default:nan (vs_mean t.run c) in
          let b = Option.value ~default:nan (vs_mean other c) in
          Buffer.add_string buf
            (Printf.sprintf {|"%s":{"mean":%s,"other_mean":%s,"delta":%s}|} c
               (json_float a) (json_float b)
               (json_float (a -. b))))
        components;
      Buffer.add_string buf "}}");
  Buffer.add_char buf '}';
  Buffer.contents buf

(* ---- human output ------------------------------------------------------- *)

let pct x = Printf.sprintf "%5.1f%%" (100. *. x)
let us x = Printf.sprintf "%.1fus" (1e6 *. x)

let print t =
  let str_field key =
    match Json.member key t.run with
    | Some (Json.Str s) -> s
    | Some (Json.Num f) -> Printf.sprintf "%g" f
    | _ -> "?"
  in
  Printf.printf "run: %s on %s (load %s) — afct %s, p99 %s, completed %s\n"
    (str_field "protocol") (str_field "scenario") (str_field "load")
    (str_field "afct") (str_field "p99") (str_field "completed");
  (match t.flows with
  | [] -> ()
  | flows ->
      let fct_sum = List.fold_left (fun acc f -> acc +. f.fct) 0. flows in
      Series.print_table ~title:"Delay attribution (all completed flows)"
        ~header:[ "component"; "total"; "share" ]
        (List.map
           (fun c ->
             let total = comp_total flows c in
             [
               c;
               Printf.sprintf "%.6fs" total;
               (if fct_sum > 0. then pct (total /. fct_sum) else "-");
             ])
           components);
      (match flow_at_percentile flows 99. with
      | None -> ()
      | Some f ->
          Series.print_table
            ~title:
              (Printf.sprintf
                 "p99 flow breakdown (flow %d, %d pkts, fct %s, %d timeouts)"
                 f.flow f.size_pkts (us f.fct) f.timeouts)
            ~header:[ "component"; "seconds"; "share" ]
            (List.map
               (fun (c, v) ->
                 [ c; us v; (if f.fct > 0. then pct (v /. f.fct) else "-") ])
               f.comps)));
  (match t.links with
  | [] -> ()
  | _ ->
      Series.print_table
        ~title:(Printf.sprintf "Hot links (top %d by mean utilization)" t.top)
        ~header:[ "link"; "mean util"; "peak util" ]
        (List.map
           (fun l -> [ l.label; pct l.mean_util; pct l.peak_util ])
           (top_links t));
      Series.print_table
        ~title:(Printf.sprintf "Hot queues (top %d by peak depth)" t.top)
        ~header:[ "link"; "peak pkts"; "drops" ]
        (List.map
           (fun l ->
             [ l.label; Printf.sprintf "%.0f" l.peak_pkts;
               Printf.sprintf "%.0f" l.drops ])
           (top_queues t)));
  (match coflow_obj t.run with
  | None -> ()
  | Some c ->
      let n k = coflow_num c k in
      let ms x =
        if Float.is_nan x then "-" else Printf.sprintf "%.3fms" (1e3 *. x)
      in
      Series.print_table ~title:"Coflow completion (all-workers-finish)"
        ~header:[ "metric"; "value" ]
        [
          [
            "coflows";
            Printf.sprintf "%.0f (%.0f censored)" (n "coflows") (n "censored");
          ];
          [ "member flows"; Printf.sprintf "%.0f" (n "flows") ];
          [ "cct mean"; ms (n "cct_mean") ];
          [ "cct p50"; ms (n "cct_p50") ];
          [ "cct p99"; ms (n "cct_p99") ];
          [
            "deadline met";
            (if Float.is_nan (n "deadline_met_frac") then "-"
             else
               Printf.sprintf "%.0f/%.0f (%.1f%%)" (n "deadline_met")
                 (n "deadline_total")
                 (100. *. n "deadline_met_frac"));
          ];
        ]);
  match t.vs with
  | None -> ()
  | Some other ->
      let title =
        Printf.sprintf "Attribution diff: %s vs %s (mean per flow)"
          (match Json.string_member "protocol" t.run with
          | Some s -> s
          | None -> "?")
          (match Json.string_member "protocol" other with
          | Some s -> s
          | None -> "?")
      in
      if List.for_all (fun c -> vs_mean other c = None) components then
        Printf.printf
          "\n== %s ==\n(no attribution in the --vs result; rerun it with \
           --attrib)\n"
          title
      else
        Series.print_table ~title
          ~header:[ "component"; "mean"; "other"; "delta" ]
          (List.map
             (fun c ->
               let a = Option.value ~default:nan (vs_mean t.run c) in
               let b = Option.value ~default:nan (vs_mean other c) in
               [ c; us a; us b; us (a -. b) ])
             components)
