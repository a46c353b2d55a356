(* Run a simulation in a forked child, the shape of a parallel worker, and
   bring its result back over a pipe through [Result_codec]. Runs that the
   fork pool does not carry (streaming statistics, attribution) use this to
   check that their results do not depend on the process computing them. *)

let run f =
  let rd, wr = Unix.pipe () in
  (* Flush before forking so buffered output is not emitted twice. *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let status =
        match
          output_string oc (Result_codec.encode (f ()));
          close_out oc
        with
        | () -> 0
        | exception _ -> 1
      in
      (* _exit, not exit: at_exit in a fork would rerun the parent's
         teardown a second time. *)
      Unix._exit status
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let blob = In_channel.input_all ic in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "child succeeded" true (status = Unix.WEXITED 0);
      (match Result_codec.decode blob with
      | Ok r -> r
      | Error e -> Alcotest.fail ("child sent an unreadable result: " ^ e))
