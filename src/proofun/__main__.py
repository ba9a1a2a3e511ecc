from proofun.repl import main

raise SystemExit(main())
