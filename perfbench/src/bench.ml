(* One benchmark run: set up the server several times, drive an
   open-loop phase and a closed-loop phase over real sockets, check the
   correctness gate, and print the metrics.  With [~trace:true] the
   run's open-loop stream is also replayed in-process with spans, and
   the per-layer metrics are printed instead of the end-to-end ones. *)

(* set-up is timed once for the server that serves the run and
   [spare_setups] times each before and after the measured phases *)
let spare_setups = 10
let spare_gap_s = 0.2
let open_share = 0.65

(* the generator is behind its schedule when its p99 lag exceeds this *)
let max_gen_lag_p99_us = 20_000.

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

let say fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

(* {1 Provenance} *)

let read_file p = try Some (In_channel.with_open_bin p In_channel.input_all) with Sys_error _ -> None

(* The sha of HEAD, from a loose ref or from [.git/packed-refs]. *)
let git_sha () =
  let packed r =
    Option.bind (read_file ".git/packed-refs") (fun s ->
        List.find_map
          (fun l ->
            match String.split_on_char ' ' (String.trim l) with
            | [ sha; name ] when name = r -> Some sha
            | _ -> None)
          (String.split_on_char '\n' s))
  in
  match Option.map String.trim (read_file ".git/HEAD") with
  | None -> "none (not a git checkout)"
  | Some h when String.starts_with ~prefix:"ref: " h -> (
      let r = String.sub h 5 (String.length h - 5) in
      match read_file (Filename.concat ".git" r) with
      | Some s -> String.trim s
      | None -> Option.value ~default:"unknown" (packed r))
  | Some h -> h

(* A digest of the library sources: the benchmark also runs from
   exported checkouts that have no .git, where it is the only record of
   the code that was measured. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if Sys.is_directory p then files p else [ p ])
  in
  files "lib"
  |> List.map (fun p -> p ^ Digest.to_hex (Digest.file p))
  |> String.concat "" |> Digest.string |> Digest.to_hex

let cpu_model () =
  Option.value ~default:"unknown"
    (Option.bind (read_file "/proc/cpuinfo") (fun s ->
         List.find_map
           (fun l ->
             match String.index_opt l ':' with
             | Some i when String.starts_with ~prefix:"model name" l ->
                 Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
             | _ -> None)
           (String.split_on_char '\n' s)))

(* The filesystem type of the longest mount point holding [dir]. *)
let fs_type dir =
  let dir = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  let within m = m = "/" || dir = m || String.starts_with ~prefix:(m ^ "/") dir in
  Option.bind (read_file "/proc/mounts") (fun s ->
      String.split_on_char '\n' s
      |> List.filter_map (fun l ->
             match String.split_on_char ' ' l with
             | _ :: m :: fs :: _ when within m -> Some (String.length m, fs)
             | _ -> None)
      |> List.sort compare |> List.rev
      |> function
      | (_, fs) :: _ -> Some fs
      | [] -> None)
  |> Option.value ~default:"unknown"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* JSON has no infinity: a failed request's latency is reported as 1e12 *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "1e12"

(* {1 Metrics} *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let m ?(samples = 0) name unit_ value = { name; value; unit_; samples }

let kinds = [ Openloop.Commit; Pull; View ]

(* Latency from the due time, over the kind's open-loop requests. *)
let latency_metrics (reqs : Load.req list) kind =
  let k = Openloop.kind_name kind in
  let lat =
    List.filter (fun (r : Load.req) -> r.kind = kind) reqs
    |> List.map (fun (r : Load.req) ->
           Openloop.latency ~due:r.due ~finished:r.t_done ~ok:(r.failure = None))
    |> Array.of_list |> Tail.sorted
  in
  let n = Array.length lat in
  if n = 0 then []
  else begin
    (* tails did not repeat within 25% from run to run on a shared
       2-core machine: they are reported, not gated *)
    (match Tail.tail lat with
    | Some t -> say "%s_p99_us = %s us (n=%d, p%.2f, %d beyond)" k (json_number t.value) n t.pct t.beyond
    | None -> say "%s_p99_us: fewer than 11 samples (n=%d)" k n);
    [ m ~samples:n (k ^ "_p50_us") "us" (Tail.quantile lat 0.5) ]
  end

let mean_of f xs =
  if xs = [] then 0. else List.fold_left (fun a x -> a +. f x) 0. xs /. float (List.length xs)

let ratio a b = if b = 0 then 0. else float a /. float b

(* The per-layer metrics from the traced replay of the open-loop stream. *)
let layer_metrics (reqs : Load.req array) (rr : Replay.result) (st : Child.stats)
    ~gen_lag_p99 : metric list =
  let count k = Option.value ~default:0 (Hashtbl.find_opt rr.count k) in
  let self k name = Option.value ~default:0. (Hashtbl.find_opt rr.self (k, name)) in
  let layer name ks =
    let n = List.fold_left (fun a k -> a + count k) 0 ks in
    let s = List.fold_left (fun a k -> a +. self k name) 0. ks in
    if n = 0 then 0. else s /. float n
  in
  let inproc_layers =
    [
      "frame.decode"; "envelope.parse"; "wire.parse"; "core.handle"; "session.rebase";
      "store.commit.other"; "bx.put"; "durable.append"; "session.pull"; "store.view";
      "wire.render"; "envelope.render"; "frame.encode";
    ]
  in
  let all = Array.to_list (Array.mapi (fun i r -> (i, r)) reqs) in
  let of_kind k = List.filter (fun (_, (r : Load.req)) -> r.kind = k) all in
  let wait (_, (r : Load.req)) = r.t_enc -. r.due
  and enc (_, (r : Load.req)) = r.t_send -. r.t_enc
  and dec (_, (r : Load.req)) = r.t_done -. r.t_recv
  and e2e (_, (r : Load.req)) = r.t_done -. r.due
  and io (i, (r : Load.req)) = r.t_recv -. r.t_send -. rr.y_total.(i) in
  (* per kind: the untraced end-to-end mean = client wait + encode +
     decode + server io + in-process layer self times + unattributed *)
  let per_kind =
    List.concat_map
      (fun k ->
        let rs = of_kind k in
        let n = List.length rs in
        let e = mean_of e2e rs in
        let parts =
          mean_of wait rs +. mean_of enc rs +. mean_of dec rs +. mean_of io rs
          +. List.fold_left (fun a l -> a +. if n = 0 then 0. else self k l /. float n) 0. inproc_layers
        in
        let kn = Openloop.kind_name k in
        say "%s breakdown (n=%d): e2e mean %.1f us = wait %.1f + encode %.1f + io %.1f%s + decode %.1f + unattributed %.1f"
          kn n e (mean_of wait rs) (mean_of enc rs) (mean_of io rs)
          (String.concat ""
             (List.map
                (fun l -> if n = 0 then "" else Printf.sprintf " + %s %.1f" l (self k l /. float n))
                inproc_layers))
          (mean_of dec rs) (e -. parts);
        [
          m ~samples:n (kn ^ ".e2e_mean_us") "us" e;
          m ~samples:n (kn ^ ".unattributed_us") "us" (e -. parts);
        ])
      kinds
  in
  let unattributed =
    List.fold_left
      (fun a k ->
        let mm = List.find (fun x -> x.name = Openloop.kind_name k ^ ".unattributed_us") per_kind in
        a +. (mm.value *. float mm.samples))
      0. kinds
    /. float (max 1 (Array.length reqs))
  in
  let commits = count Commit in
  let p50 xs = Tail.quantile (Tail.sorted xs) 0.5 in
  let n = Array.length reqs in
  [
    m "frame.decode_us" "us" (layer "frame.decode" kinds);
    m "frame.encode_us" "us" (layer "frame.encode" kinds);
    m "frame.bytes_in_per_op" "bytes" (ratio rr.bytes_in n);
    m "envelope.parse_us" "us" (layer "envelope.parse" kinds);
    m "envelope.render_us" "us" (layer "envelope.render" kinds);
    m "core.handle_us" "us" (layer "core.handle" kinds);
    m "wire.parse_us" "us" (layer "wire.parse" kinds);
    m "wire.render_us" "us" (layer "wire.render" kinds);
    m "wire.bytes_out_per_op" "bytes" (ratio rr.bytes_out n);
    m "session.rebase_us" "us" (layer "session.rebase" [ Commit ]);
    m "session.rebased_entries_per_commit" "count" (ratio rr.rebased_entries commits);
    m "session.pull_us" "us" (layer "session.pull" [ Pull ]);
    m "session.poll_hit_ratio" "ratio" (ratio (fst rr.poll) (fst rr.poll + snd rr.poll));
    m "store.view_us" "us" (layer "store.view" [ View ]);
    m "store.view_hit_ratio" "ratio" (ratio (fst rr.view) (fst rr.view + snd rr.view));
    m "store.commit.other_us" "us" (layer "store.commit.other" [ Commit ]);
    m "bx.put_us" "us" (layer "bx.put" [ Commit ]);
    m "durable.append_us" "us" (layer "durable.append" [ Commit ]);
    m "durable.writes_per_commit" "count" (ratio rr.durable_writes commits);
    m "durable.bytes_per_commit" "bytes" (ratio rr.durable_bytes commits);
    m "core.executed" "count" (float st.executed);
    m "core.dedup_hits" "count" (float st.dedup_hits);
    m "core.overloads" "count" (float st.overloads);
    m "server.io_us" "us" (mean_of io all);
    m "server.cpu_util" "ratio" (st.cpu_s /. st.wall_s);
    m "client.wait_us" "us" (mean_of wait all);
    m "client.encode_us" "us" (mean_of enc all);
    m "client.decode_us" "us" (mean_of dec all);
    m "client.gen_lag_p99_us" "us" gen_lag_p99;
  ]
  @ per_kind
  @ [
      m ~samples:n "unattributed_us" "us" unattributed;
      m ~samples:n "trace.overhead_frac" "ratio" ((p50 rr.x_total -. p50 rr.y_total) /. p50 rr.y_total);
    ]

(* {1 The run} *)

let run ~(w : Gen.workload) ~seed ~seconds ~trace : int =
  let base = Printf.sprintf ".perfbench/run-%d" (Unix.getpid ()) in
  let server_dir = Filename.concat base "server" in
  let addr = "unix:" ^ Filename.concat base "sock" in
  let child = ref None and load = ref None in
  let teardown () =
    Option.iter Load.close !load;
    load := None;
    Option.iter Child.kill !child;
    child := None
  in
  let stop () =
    Option.iter Load.close !load;
    load := None;
    let st = Option.bind !child Child.stop in
    child := None;
    st
  in
  (* a dead server must surface as EPIPE, not kill the load generator *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Fun.protect
    ~finally:(fun () ->
      teardown ();
      rm_rf base)
    (fun () ->
      mkdir_p base;
      let set_up ~dir ~addr =
        rm_rf dir;
        let t0 = Clock.now_us () in
        let c = Child.spawn ~workload:w.name ~seed ~addr ~dir in
        child := Some c;
        let l = Load.create ~addr:c.addr ~conns:Gen.conns (Gen.sessions w ~seed) in
        load := Some l;
        Load.hello l;
        (Clock.now_us () -. t0) /. 1e6
      in
      (* Set-ups that serve nothing, [spare_gap_s] apart: the machine's
         speed changes over about a second, so set-ups made back to back
         would all see one moment of it. *)
      let spares () =
        List.init spare_setups (fun _ ->
            let t =
              set_up ~dir:(Filename.concat base "spare") ~addr:("unix:" ^ Filename.concat base "spare.sock")
            in
            ignore (stop ());
            Unix.sleepf spare_gap_s;
            t)
      in
      let before = spares () in
      let serving = set_up ~dir:server_dir ~addr in
      let l = Option.get !load in
      let disk0 = Replay.disk_bytes server_dir in
      let rng = Random.State.make [| seed; 0x09e7 |] in
      let lags = Load.open_loop l w ~rng ~duration_us:(seconds *. open_share *. 1e6) in
      let open_reqs = l.finished in
      (* the seed and the rate fix the open loop's commits, and the
         server's memory grows with commits: its peak is read here, not
         after the closed loop, whose commits grow with capacity *)
      let rss_kb = Child.max_rss_kb (Option.get !child).pid in
      let capacity = Load.closed_loop l w ~duration_us:(seconds *. (1. -. open_share) *. 1e6) in
      Load.final l;
      let st =
        match stop () with Some st -> st | None -> failwith "server exited without its stats"
      in
      let setups = Array.of_list (before @ (serving :: spares ())) in
      let reqs = l.finished in
      let gen_lag_p99 =
        if Array.length lags = 0 then 0. else Tail.quantile (Tail.sorted lags) 0.99
      in
      let violations =
        Gate.check w ~seed ~dir:server_dir ~gens:l.gens ~head:st.head reqs
        @
        if gen_lag_p99 > max_gen_lag_p99_us then
          [ Printf.sprintf "the generator fell behind its schedule: p99 lag %.0f us" gen_lag_p99 ]
        else []
      in
      if violations <> [] then begin
        List.iter (Printf.eprintf "perfbench: VIOLATION: %s\n") violations;
        1
      end
      else begin
        let measured = List.filter (fun (r : Load.req) -> r.phase = Open || r.phase = Closed) reqs in
        let attempted = List.length measured in
        let failed = List.length (List.filter (fun (r : Load.req) -> r.failure <> None) measured) in
        let acked = st.head in
        let final_rows =
          List.find_map
            (fun (r : Load.req) ->
              if r.phase = Final && r.kind = View && l.gens.(r.sess).side = `A then
                Some (List.length r.rows)
              else None)
            reqs
        in
        say "workload %s seed %d: %s" w.name seed (if trace then "traced" else "untraced");
        say "provenance: git %s, lib digest %s, nproc %d, cpu %S, log dir fs %s, ocaml %s"
          (git_sha ()) (source_digest ())
          (Domain.recommended_domain_count ())
          (cpu_model ()) (fs_type base) Sys.ocaml_version;
        say "acked commits %d; final table rows %d (initial %d)" acked
          (Option.value ~default:0 final_rows) w.size;
        say "failed_frac %.6f (%d of %d)" (ratio failed attempted) failed attempted;
        if Gen.fsync_policy w <> None then
          say "disk_bytes_per_commit %.1f bytes" (ratio (Replay.disk_bytes server_dir - disk0) acked);
        say "client.gen_lag_p99_us %.1f" gen_lag_p99;
        let metrics =
          if trace then begin
            let stream = Array.of_list (List.rev open_reqs) in
            Array.stable_sort (fun (a : Load.req) b -> compare a.t_send b.t_send) stream;
            let rr = Replay.run w ~seed ~dir:base stream in
            layer_metrics stream rr st ~gen_lag_p99
          end
          else
            let open_phase = List.filter (fun (r : Load.req) -> r.phase = Open) reqs in
            [ m ~samples:(Array.length setups) "setup_s" "s" (Tail.quantile (Tail.sorted setups) 0.5) ]
            @ List.concat_map (latency_metrics open_phase) kinds
            @ [
                m ~samples:(List.length (List.filter (fun (r : Load.req) -> r.phase = Closed) reqs))
                  "capacity_ops_s" "1/s" capacity;
                m "server_rss_mb" "MB" (float rss_kb /. 1024.);
              ]
        in
        List.iter
          (fun x ->
            say "%s = %s %s%s" x.name (json_number x.value) x.unit_
              (if x.samples > 0 then Printf.sprintf " (n=%d)" x.samples else ""))
          metrics;
        Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
          attempted failed
          (String.concat ", "
             (List.map
                (fun x ->
                  Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
                    (json_number x.value) (json_string x.unit_))
                metrics));
        0
      end)
